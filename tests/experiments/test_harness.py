"""Tests for the replay harness."""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, make_scenario

DAY = 86400.0
HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestAttackSpec:
    def test_defaults_match_paper(self):
        spec = AttackSpec()
        assert spec.start == 6 * DAY
        assert spec.duration == 6 * HOUR
        assert spec.end == 6 * DAY + 6 * HOUR

    def test_default_targets_root_and_tlds(self, scenario):
        schedule = AttackSpec().build_schedule(scenario.built)
        window = schedule.windows()[0]
        assert len(window.target_zones) == 1 + len(scenario.built.tree.tld_names())

    def test_explicit_targets(self, scenario):
        target = scenario.built.provider_zones[0]
        schedule = AttackSpec(targets=(target,)).build_schedule(scenario.built)
        assert schedule.windows()[0].target_zones == frozenset([target])


class TestRunReplay:
    def test_basic_replay_counts_all_queries(self, scenario):
        trace = scenario.trace("TRC1")
        result = run_replay(scenario.built, trace, ResilienceConfig.vanilla())
        assert result.metrics.sr_queries == len(trace)
        assert result.metrics.cs_demand_queries > 0
        assert result.window is None
        assert result.metrics.sr_attack_failure_rate == 0.0

    def test_attack_window_populated(self, scenario):
        result = run_replay(
            scenario.built, scenario.trace("TRC1"),
            ResilienceConfig.vanilla(), attack=AttackSpec(),
        )
        assert result.window is not None
        assert result.window.sr_queries > 0
        assert result.window is result.metrics.window
        assert 0.0 < result.metrics.sr_attack_failure_rate <= 1.0

    def test_no_failures_without_attack(self, scenario):
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.vanilla())
        assert result.metrics.sr_failures == 0

    def test_gap_tracking_optional(self, scenario):
        without = run_replay(scenario.built, scenario.trace("TRC1"),
                             ResilienceConfig.vanilla())
        assert without.metrics.gap_samples == []
        with_gaps = run_replay(scenario.built, scenario.trace("TRC1"),
                               ResilienceConfig.vanilla(), track_gaps=True)
        assert len(with_gaps.metrics.gap_samples) > 0

    def test_memory_sampling(self, scenario):
        result = run_replay(
            scenario.built, scenario.trace("TRC1"),
            ResilienceConfig.vanilla(), memory_sample_interval=12 * HOUR,
        )
        samples = result.metrics.memory_samples
        assert len(samples) == 14  # every 12 h from 12 h to day 7 inclusive
        assert samples[-1].records_cached > 0
        times = [s.time for s in samples]
        assert times == sorted(times)

    def test_long_ttl_restored_after_replay(self, scenario):
        tree = scenario.built.tree
        sld = next(z for z in tree.zones() if z.name.depth() == 2)
        before = sld.infrastructure_records.ns.ttl
        run_replay(scenario.built, scenario.trace("TRC1"),
                   ResilienceConfig.refresh_long_ttl(7))
        assert sld.infrastructure_records.ns.ttl == before

    def test_deterministic_given_seed(self, scenario):
        args = (scenario.built, scenario.trace("TRC2"), ResilienceConfig.refresh())
        first = run_replay(*args, attack=AttackSpec(), seed=3)
        second = run_replay(*args, attack=AttackSpec(), seed=3)
        assert first.metrics.cs_demand_queries == second.metrics.cs_demand_queries
        assert first.metrics == second.metrics

    def test_result_labels(self, scenario):
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.refresh())
        assert result.label == "refresh"
        assert result.trace_name == "TRC1"

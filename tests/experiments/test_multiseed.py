"""Tests for multi-seed replication, traffic bytes and failure blame."""

import json
from collections import Counter

import pytest

from repro.core.config import ResilienceConfig
from repro.dns.name import root_name
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.multiseed import (
    SeedStatistics,
    _multiseed_experiment,
    seed_spread,
)
from repro.experiments.scenarios import Scale, make_scenario
from repro.obs.events import EventKind
from repro.obs.spec import ObservationSpec


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestSeedStatistics:
    def test_mean_and_std(self):
        stats = SeedStatistics.from_samples([0.1, 0.2, 0.3])
        assert stats.mean == pytest.approx(0.2)
        assert stats.std == pytest.approx(0.1)

    def test_single_sample(self):
        stats = SeedStatistics.from_samples([0.5])
        assert stats.mean == 0.5
        assert stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeedStatistics.from_samples([])

    def test_str_is_percent(self):
        assert "±" in str(SeedStatistics.from_samples([0.1, 0.2]))


class TestMultiSeed:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return _multiseed_experiment(
            scenario,
            schemes=(ResilienceConfig.vanilla(), ResilienceConfig.combination()),
            seeds=(0, 1, 2),
        )

    def test_scheme_ordering_holds_in_means(self, result):
        assert seed_spread(result.row("combo+a-lfu3+ttl3d")).mean < \
            seed_spread(result.row("vanilla")).mean

    def test_spread_is_bounded(self, result):
        # Seeds only change server-rotation/jitter choices, so the seed
        # spread should stay within a few percentage points.
        for scheme, row in result.rows.items():
            assert seed_spread(row).std < 0.08, scheme

    def test_render(self, result):
        assert "Multi-seed" in result.render()

    def test_requires_seeds(self, scenario):
        with pytest.raises(ValueError):
            _multiseed_experiment(scenario, seeds=())


class TestTrafficBytes:
    def test_bytes_counted_per_replay(self, scenario):
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.vanilla())
        metrics = result.metrics
        assert metrics.bytes_out > 0
        assert metrics.bytes_in > metrics.bytes_out  # answers are bigger
        assert metrics.total_bytes == metrics.bytes_out + metrics.bytes_in

    def test_byte_overhead_tracks_message_overhead_sign(self, scenario):
        trace = scenario.trace("TRC1")
        baseline = run_replay(scenario.built, trace, ResilienceConfig.vanilla())
        long_ttl = run_replay(scenario.built, trace,
                              ResilienceConfig.refresh_long_ttl(7))
        assert long_ttl.metrics.byte_overhead_vs(baseline.metrics) < 0.0

    def test_empty_baseline_reads_as_zero_overhead(self):
        from repro.simulation.metrics import ReplayMetrics
        assert ReplayMetrics().byte_overhead_vs(ReplayMetrics()) == 0.0


def retry_blame(scenario, events_path, attack=None):
    """Per-zone count of ``fetch.retry`` events: each one is a zone whose
    whole server set failed a resolution."""
    run_replay(
        scenario.built, scenario.trace("TRC1"), ResilienceConfig.vanilla(),
        attack=attack, observe=ObservationSpec(events_path=str(events_path)),
    )
    blame = Counter()
    with open(events_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["kind"] == EventKind.FETCH_RETRY.value:
                blame[event["zone"]] += 1
    return blame


@pytest.fixture(scope="module")
def attack_blame(scenario, tmp_path_factory):
    events = tmp_path_factory.mktemp("blame") / "events.jsonl"
    return retry_blame(scenario, events, attack=AttackSpec())


class TestFailureBlame:
    def _infrastructure(self, scenario):
        return {str(zone) for zone in scenario.built.tree.tld_names()} | {
            str(root_name())
        }

    def test_attack_blames_root_and_tlds(self, scenario, attack_blame):
        assert attack_blame, "no blame recorded despite attack failures"
        infrastructure = self._infrastructure(scenario)
        blamed_infra = sum(
            count for zone, count in attack_blame.items()
            if zone in infrastructure
        )
        assert blamed_infra / sum(attack_blame.values()) > 0.9

    def test_no_blame_without_attack(self, scenario, tmp_path):
        assert retry_blame(scenario, tmp_path / "events.jsonl") == Counter()

    def test_top_blamed_is_sorted(self, scenario, attack_blame):
        top = attack_blame.most_common(5)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)
        # Every failed walk climbs to the root, which the attack blocks too.
        assert top[0][0] == str(root_name())

"""Tests for the fleet replay (one caching server per organisation)."""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments.fleet import (
    FLEET,
    aggregate_sr_failure_rate,
    fleet_attack_comparison,
    total_failed_lookups,
)
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, make_scenario

TRACES = ("TRC1", "TRC2")


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


@pytest.fixture(scope="module")
def vanilla_fleet(scenario):
    return fleet_attack_comparison(
        scenario, [ResilienceConfig.vanilla()], trace_limit=len(TRACES),
    )["vanilla"]


def _assert_members_equal_solo_replays(scenario, table, config, attack, seed):
    for index, trace_name in enumerate(TRACES):
        solo = run_replay(scenario.built, scenario.trace(trace_name), config,
                          attack=attack, seed=seed + index)
        assert table.row(trace_name) == solo.metrics, trace_name


class TestFleetReplay:
    def test_every_member_replayed_fully(self, scenario, vanilla_fleet):
        assert list(vanilla_fleet.rows) == [*TRACES, FLEET]
        for trace_name in TRACES:
            assert vanilla_fleet.row(trace_name).sr_queries == len(
                scenario.trace(trace_name))

    def test_caches_are_independent(self, scenario, vanilla_fleet):
        # A cache shared with TRC2 would make TRC1's member hit more often
        # than it does in a fleet of its own.
        alone = fleet_attack_comparison(
            scenario, [ResilienceConfig.vanilla()], trace_limit=1,
        )["vanilla"]
        assert alone.row("TRC1") == vanilla_fleet.row("TRC1")

    def test_aggregate_matches_members(self, vanilla_fleet):
        members = vanilla_fleet.row(FLEET)
        assert members == tuple(vanilla_fleet.row(name) for name in TRACES)
        windows = [member.window for member in members]
        total_queries = sum(window.sr_queries for window in windows)
        total_failures = sum(window.sr_failures for window in windows)
        assert total_failed_lookups(members) == total_failures
        assert aggregate_sr_failure_rate(members) == pytest.approx(
            total_failures / total_queries
        )

    @pytest.mark.parametrize("config", [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh_long_ttl(7),
    ], ids=lambda config: config.label)
    def test_every_member_equals_its_solo_replay(self, scenario, config):
        # Member i is an ordinary replay at seed + i, long-TTL override
        # included.
        attack = AttackSpec(start=scenario.attack_start)
        table = fleet_attack_comparison(
            scenario, [config], attack=attack, trace_limit=len(TRACES), seed=3,
        )[config.label]
        _assert_members_equal_solo_replays(scenario, table, config, attack, 3)

    def test_partial_attack_reaches_every_member(self, scenario):
        # A 0.5-intensity attack drops queries by per-query fault draws;
        # a fleet member must see it exactly as a solo replay does.
        config = ResilienceConfig.vanilla()
        attack = AttackSpec(start=scenario.attack_start, intensity=0.5)
        table = fleet_attack_comparison(
            scenario, [config], attack=attack, trace_limit=len(TRACES),
        )["vanilla"]
        _assert_members_equal_solo_replays(scenario, table, config, attack, 0)
        assert total_failed_lookups(table.row(FLEET)) > 0

    def test_unknown_member(self, vanilla_fleet):
        with pytest.raises(KeyError):
            vanilla_fleet.row("TRC9")

    def test_render(self, vanilla_fleet):
        text = vanilla_fleet.render()
        assert "fleet" in text and "TRC1" in text


class TestFleetComparison:
    def test_schemes_ordered(self, scenario):
        results = fleet_attack_comparison(scenario, trace_limit=2)
        vanilla = aggregate_sr_failure_rate(results["vanilla"].row(FLEET))
        combo = aggregate_sr_failure_rate(
            results["combo+a-lfu3+ttl3d"].row(FLEET))
        assert combo < vanilla

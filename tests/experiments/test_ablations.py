"""Tests for the ablation / extension experiments."""

import pytest

from repro.experiments.ablations import (
    capacity_ablation,
    holddown_ablation,
    mechanism_ablation,
    other_attack_classes,
    scale_sensitivity,
    stale_comparison,
)
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.table import SR


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestMechanismAblation:
    def test_rows_and_ordering(self, scenario):
        result = mechanism_ablation(scenario)
        labels = list(result.rows)
        assert labels[0] == "vanilla"
        assert "combination" in labels
        # Stacked mechanisms never do worse than vanilla.
        vanilla = SR(result.row("vanilla"))
        assert SR(result.row("refresh only")) <= vanilla
        assert SR(result.row("refresh + renew")) <= vanilla
        assert SR(result.row("combination")) <= vanilla

    def test_render(self, scenario):
        assert "Ablation" in mechanism_ablation(scenario).render()

    def test_unknown_label_raises(self, scenario):
        with pytest.raises(KeyError):
            mechanism_ablation(scenario).row("nope")


class TestStaleComparison:
    def test_stale_beats_vanilla(self, scenario):
        result = stale_comparison(scenario)
        assert SR(result.row("serve-stale")) <= SR(result.row("vanilla"))


class TestOtherAttackClasses:
    def test_single_zone_attacks_have_limited_blast_radius(self, scenario):
        result = other_attack_classes(scenario)
        # An attack on one SLD/provider hurts far fewer queries than the
        # root+TLD attack does (which is >30% SR failures at this scale).
        for label, summary in result.rows.items():
            assert SR(summary) < 0.30, label

    def test_render(self, scenario):
        assert "attack classes" in other_attack_classes(scenario).render()


class TestHolddownAblation:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return holddown_ablation(scenario)

    def test_holddown_does_not_change_sr_outcome(self, result):
        assert SR(result.row("vanilla + holddown 10m")) == pytest.approx(
            SR(result.row("vanilla")), abs=0.05
        )

    def test_holddown_reduces_message_volume(self, result):
        rows = {label: s.total_outgoing for label, s in result.rows.items()}
        assert rows["vanilla + holddown 10m"] < rows["vanilla"]

    def test_fast_select_preserves_availability(self, result):
        assert SR(result.row("refresh + fast-select")) == pytest.approx(
            SR(result.row("refresh + holddown 10m")), abs=0.10
        )


class TestCapacityAblation:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return capacity_ablation(scenario)

    def test_generous_capacity_matches_unbounded(self, result):
        assert SR(result.row("combination / 4x zones")) == pytest.approx(
            SR(result.row("combination / unbounded")), abs=0.02
        )

    def test_starved_cache_degrades(self, result):
        assert SR(result.row("combination / 0.25x zones")) > \
            SR(result.row("combination / 4x zones"))

    def test_render(self, result):
        assert "cache capacity" in result.render()


class TestScaleSensitivity:
    def test_runs_at_tiny_only(self):
        # Single-scale invocation keeps this a unit test; the cross-scale
        # claim is exercised by the dedicated bench.
        result = scale_sensitivity(scales=(Scale.TINY,))
        assert len(result.rows) == 3
        assert {scheme for _, scheme in result.rows} == {
            "vanilla", "refresh", "combination"
        }
        assert "Scale sensitivity" in result.render()

"""The amplification and poisoning experiments end to end (tiny axes)."""

import argparse

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.amplification import (
    AmplificationSpec,
    run as run_amplification,
)
from repro.experiments.poisoning import (
    PoisoningSpec,
    _percentile,
    run as run_poisoning,
)
from repro.experiments.registry import add_spec_arguments, spec_from_args
from repro.experiments.scenarios import Scale


class TestAmplification:
    @pytest.fixture(scope="class")
    def result(self):
        return run_amplification(AmplificationSpec(
            scale=Scale.TINY,
            attack_hours=0.25,
            queries_per_minute=12.0,
            delegations=4,
            fan_outs=(2, 6),
            fetch_budgets=(0, 2),
        ))

    def test_grid_shape(self, result):
        assert result.headers == ("fan=2", "fan=6")
        assert tuple(result.rows) == ("off", "b=2")
        assert sum(len(row) for row in result.rows.values()) == 4

    def test_undefended_amplification_scales_with_fan_out(self, result):
        narrow = result.cell("off", "fan=2")
        wide = result.cell("off", "fan=6")
        assert 1.0 < narrow.amplification_factor < wide.amplification_factor
        assert narrow.budget_exhaustions == 0

    def test_budget_clamps_with_bounded_collateral(self, result):
        open_cell = result.cell("off", "fan=6")
        capped = result.cell("b=2", "fan=6")
        assert capped.amplification_factor < open_cell.amplification_factor
        assert capped.budget_exhaustions > 0
        # The clamp must not torch legitimate traffic: collateral SR
        # failure stays within a point of the undefended run.
        assert abs(capped.sr_failure_rate - open_cell.sr_failure_rate) < 0.01

    def test_render_is_a_grid(self, result):
        table = result.render()
        assert "fan=2" in table and "fan=6" in table
        assert "off" in table and "b=2" in table
        assert "NXNS amplification" in table

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_amplification(AmplificationSpec(fan_outs=()))
        with pytest.raises(ValueError):
            run_amplification(AmplificationSpec(fetch_budgets=()))
        with pytest.raises(ValueError):
            run_amplification(AmplificationSpec(fan_outs=(0,)))

    def test_cli_round_trip(self):
        parser = argparse.ArgumentParser()
        definition = EXPERIMENTS["amplification"]
        add_spec_arguments(parser, definition.spec_type)
        args = parser.parse_args(
            ["--scale", "tiny", "--fan-outs", "2,6", "--fetch-budgets",
             "0,4", "--attack-hours", "1.5"]
        )
        spec = spec_from_args(definition.spec_type, args)
        assert spec == AmplificationSpec(
            scale=Scale.TINY, fan_outs=(2, 6), fetch_budgets=(0, 4),
            attack_hours=1.5,
        )


class TestPoisoning:
    @pytest.fixture(scope="class")
    def result(self):
        return run_poisoning(PoisoningSpec(
            scale=Scale.TINY,
            schemes="vanilla",
            rates=(0.2,),
            entropy_bits=4,
        ))

    def test_rows_pair_each_scheme_with_a_guard(self, result):
        assert tuple(result.rows) == ("vanilla", "vanilla+guard")
        assert sum(len(row) for row in result.rows.values()) == 2

    def test_guard_cuts_stuck_forgeries(self, result):
        base = result.cell("vanilla", "rate=0.2")
        guarded = result.cell("vanilla+guard", "rate=0.2")
        assert base.poison_stored > 0
        assert guarded.poison_stored < base.poison_stored
        assert base.poison_stored >= base.poison_cured
        assert all(dwell >= 0.0 for dwell in base.poison_dwells)

    def test_dwell_percentiles_are_ordered(self, result):
        base = result.cell("vanilla", "rate=0.2")
        dwells = base.poison_dwells
        assert _percentile(dwells, 0.50) <= _percentile(dwells, 0.90)

    def test_render_reports_dwells(self, result):
        table = result.render()
        assert "rate=0.2" in table
        assert "stuck" in table
        assert "vanilla+guard" in table

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            run_poisoning(PoisoningSpec(schemes="  "))
        with pytest.raises(ValueError):
            run_poisoning(PoisoningSpec(rates=()))
        with pytest.raises(ValueError):
            run_poisoning(PoisoningSpec(rates=(1.5,)))
        with pytest.raises(ValueError):
            run_poisoning(PoisoningSpec(entropy_bits=-1))

    def test_percentile_is_nearest_rank(self):
        assert _percentile((), 0.5) == 0.0
        assert _percentile((3.0, 1.0, 2.0), 0.5) == 2.0
        assert _percentile((3.0, 1.0, 2.0), 0.9) == 3.0

    def test_cli_round_trip(self):
        parser = argparse.ArgumentParser()
        definition = EXPERIMENTS["poisoning"]
        add_spec_arguments(parser, definition.spec_type)
        args = parser.parse_args(
            ["--schemes", "vanilla", "--rates", "0.1,0.3",
             "--entropy-bits", "8"]
        )
        spec = spec_from_args(definition.spec_type, args)
        assert spec == PoisoningSpec(
            schemes="vanilla", rates=(0.1, 0.3), entropy_bits=8,
        )

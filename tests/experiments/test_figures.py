"""Smoke + shape tests for the figure/table experiment functions (TINY scale).

These run the real experiment code end-to-end at unit-test scale; the
full-scale shapes are asserted in tests/integration/test_paper_properties.py
and regenerated by the benches.
"""

import pytest

from repro.experiments import figures
from repro.experiments.attack_grid import FailureGrid
from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestTable1:
    def test_rows_and_render(self, scenario):
        result = figures.table1(scenario, include_month=False,
                                measure_requests_out=False)
        assert len(result.rows) == 5
        text = result.render()
        assert "TRC1" in text and "TRC5" in text
        assert result.rows[0].requests_out is None

    def test_requests_out_measured(self, scenario):
        result = figures.table1(scenario, include_month=False)
        assert all(row.requests_out > 0 for row in result.rows)


class TestFigure3:
    def test_cdf_shapes(self, scenario):
        result = figures.figure3(scenario, trace_limit=2)
        assert result.sample_count > 100
        # CDFs are monotone and end at 1.
        days_series = result.cdf_days.evaluate(figures.GAP_DAY_POINTS)
        values = [v for _, v in days_series]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=0.01)
        assert "Figure 3" in result.render()

    def test_most_gaps_are_short(self, scenario):
        result = figures.figure3(scenario, trace_limit=2)
        assert result.fraction_under_5_days > 0.9


class TestAttackGridFigures:
    def test_figure4_grid_layout(self, scenario):
        grid = figures.figure4(scenario, trace_limit=2)
        assert isinstance(grid, FailureGrid)
        assert grid.columns == ("3 h", "6 h", "12 h", "24 h")
        assert set(grid.sr) == {"TRC1", "TRC2"}
        text = grid.render()
        assert "stub resolvers" in text and "caching servers" in text

    def test_figure4_failures_grow_with_duration(self, scenario):
        grid = figures.figure4(scenario, trace_limit=2)
        assert grid.column_mean_sr("24 h") > grid.column_mean_sr("3 h")

    def test_figure5_improves_on_figure4(self, scenario):
        vanilla = figures.figure4(scenario, trace_limit=1)
        refresh = figures.figure5(scenario, trace_limit=1)
        assert refresh.column_mean_sr("6 h") < vanilla.column_mean_sr("6 h")

    def test_renewal_figure_columns(self, scenario):
        grid = figures.figure9(scenario, trace_limit=1, credits=(1, 3))
        assert grid.columns == ("DNS", "A-LFU 1", "A-LFU 3")
        assert grid.column_mean_sr("A-LFU 3") <= grid.column_mean_sr("DNS")

    def test_all_renewal_figures_run(self, scenario):
        for figure in (figures.figure6, figures.figure7, figures.figure8):
            grid = figure(scenario, trace_limit=1, credits=(3,))
            assert len(grid.columns) == 2

    def test_figure10_long_ttl_columns(self, scenario):
        grid = figures.figure10(scenario, days=(1, 7), trace_limit=1)
        assert grid.columns == ("DNS", "1 Day TTL", "7 Day TTL")
        assert grid.column_mean_sr("7 Day TTL") <= grid.column_mean_sr("1 Day TTL")

    def test_figure11_combination(self, scenario):
        grid = figures.figure11(scenario, days=(3,), trace_limit=1)
        assert grid.column_mean_sr("3 Day TTL") < grid.column_mean_sr("DNS")


class TestTable2:
    def test_overheads_have_expected_signs(self, scenario):
        result = figures.table2(scenario, trace_limit=1)
        assert result.mean_overhead["Refresh"] < 0.10
        # Renewal policies add traffic; adaptive ones add the most.
        assert result.mean_overhead["A-LFU"] > result.mean_overhead["LFU"]
        assert result.mean_overhead["Long-TTL"] < 0.0
        assert "Table 2" in result.render()


# Figure 12's daily (zones_cached, records_cached) samples at TINY for
# the two schemes below: any change to how occupancy is counted must
# read the same series.  No sample lands exactly on an expiry; that tie
# is pinned by the occupancy tests in tests/core/test_cache.py.
FIGURE12_TINY_SERIES = {
    "DNS": [
        (74, 462), (73, 455), (73, 473), (75, 466), (70, 434), (65, 397),
        (75, 465), (61, 389), (78, 471), (72, 444), (67, 424), (75, 468),
        (72, 465), (76, 472), (77, 483), (71, 468), (68, 427), (72, 453),
        (63, 398), (63, 392), (75, 464), (71, 447), (76, 476), (76, 466),
        (71, 435), (74, 454), (76, 494), (71, 445), (76, 485), (72, 454),
        (72, 461),
    ],
    "A-LFU 5": [
        (143, 824), (148, 855), (150, 875), (155, 894), (151, 858),
        (154, 878), (155, 880), (153, 873), (154, 877), (155, 884),
        (154, 874), (155, 890), (155, 889), (151, 858), (151, 864),
        (154, 889), (152, 870), (152, 875), (154, 885), (153, 878),
        (153, 879), (151, 873), (153, 885), (152, 875), (154, 889),
        (152, 874), (153, 878), (153, 863), (152, 877), (150, 872),
        (153, 879),
    ],
}


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        schemes = (
            figures.FIGURE12_SCHEMES[0],   # DNS
            figures.FIGURE12_SCHEMES[4],   # A-LFU 5
        )
        return figures.figure12(scenario, schemes=schemes,
                                sample_interval=86400.0)

    def test_memory_series_and_ratios(self, result):
        assert set(result.series) == {"DNS", "A-LFU 5"}
        assert result.series["DNS"].samples
        # Enhanced scheme caches at least as much as vanilla.
        assert result.occupancy_ratios["A-LFU 5"] >= 1.0
        assert "Figure 12" in result.render()

    def test_occupancy_series_pinned(self, result):
        for label, expected in FIGURE12_TINY_SERIES.items():
            samples = result.series[label].samples
            assert [
                (sample.zones_cached, sample.records_cached)
                for sample in samples
            ] == expected, label
            assert [sample.time for sample in samples] == [
                86400.0 * day for day in range(1, len(expected) + 1)
            ]

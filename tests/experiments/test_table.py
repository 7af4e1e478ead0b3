"""The shared result table: rendering and lookups, pinned by hand."""

from types import SimpleNamespace

import pytest

from repro.experiments.table import (
    FAILURE_PANELS,
    SR,
    ResultTable,
    grid_columns,
    percent,
)


def cell(sr, cs):
    return SimpleNamespace(sr_attack_failure_rate=sr, cs_attack_failure_rate=cs)


@pytest.fixture
def grid():
    return ResultTable(
        "Figure X", ("trace",),
        grid_columns(("3 h", "6 h"), percent(SR, 1)),
        {
            "TRC1": (cell(0.5, 0.9), cell(0.25, 1.0)),
            "TRC2": (cell(0.3, 0.7), cell(0.125, 0.5)),
        },
        panels=FAILURE_PANELS,
    )


class TestRender:
    def test_single_panel(self):
        table = ResultTable(
            "Demo", ("Scheme",),
            (("SR failures", percent(SR)),
             ("Messages", lambda s: f"{s.total_outgoing:,}")),
            {
                "vanilla": SimpleNamespace(sr_attack_failure_rate=0.5,
                                           total_outgoing=12345),
                "combination": SimpleNamespace(sr_attack_failure_rate=0.0125,
                                               total_outgoing=678),
            },
        )
        assert table.render() == (
            "Demo\n"
            "====\n"
            "Scheme       SR failures  Messages\n"
            "-----------  -----------  --------\n"
            "vanilla      50.00 %      12,345\n"
            "combination  1.25 %       678"
        )

    def test_tuple_keys_fill_several_key_cells(self):
        table = ResultTable(
            "T", ("Scale", "Scheme"), (("SR", percent(SR, 1)),),
            {("tiny", "vanilla"): cell(0.5, 0.0)},
        )
        assert table.render().splitlines()[-1] == "tiny   vanilla  50.0 %"

    def test_two_panel_sr_cs(self, grid):
        assert grid.render() == (
            "Figure X — failed queries from stub resolvers\n"
            "=============================================\n"
            "trace  3 h     6 h\n"
            "-----  ------  ------\n"
            "TRC1   50.0 %  25.0 %\n"
            "TRC2   30.0 %  12.5 %\n"
            "\n"
            "Figure X — failed queries from caching servers\n"
            "==============================================\n"
            "trace  3 h     6 h\n"
            "-----  ------  -------\n"
            "TRC1   90.0 %  100.0 %\n"
            "TRC2   70.0 %  50.0 %"
        )


class TestLookups:
    def test_row_and_cell(self, grid):
        assert grid.headers == ("3 h", "6 h")
        assert grid.row("TRC2")[1] is grid.cell("TRC2", "6 h")
        assert grid.cell("TRC1", "3 h").sr_attack_failure_rate == 0.5

    def test_column_means(self, grid):
        assert grid.column_mean_sr("3 h") == pytest.approx(0.4)
        assert grid.column_mean_cs("6 h") == pytest.approx(0.75)

    def test_unknown_keys_raise(self, grid):
        with pytest.raises(KeyError):
            grid.row("TRC9")
        with pytest.raises(KeyError):
            grid.cell("TRC1", "48 h")
        with pytest.raises(KeyError):
            grid.column_mean_sr("48 h")

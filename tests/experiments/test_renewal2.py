"""The Renewal 2.0 comparison experiment (`repro renewal2`)."""

from types import SimpleNamespace

import pytest

from repro.experiments.attack_grid import (
    RENEWAL2_COLUMNS,
    Renewal2Spec,
    mean_rate,
    per_stub,
    run_renewal2,
    upstream,
)
from repro.experiments.scenarios import Scale
from repro.experiments.table import ResultTable


def stale_hits(summary):
    return summary.sr_stale_hits


def upstream_queries(summary):
    return summary.total_outgoing


@pytest.fixture(scope="module")
def result():
    return run_renewal2(Renewal2Spec(scale=Scale.TINY, trace_limit=1))


class TestRenewal2Experiment:
    def test_all_requested_schemes_have_rows(self, result):
        labels = list(result.rows)
        assert labels == ["refresh+a-lru3", "refresh+a-lfu3",
                          "swr3600s", "decoupled7d"]

    def test_upstream_budget_accounted_for_every_scheme(self, result):
        # The whole point of the table: every scheme's refreshes are
        # renewal-tagged, so upstream_queries is comparable across rows.
        for label, row in result.rows.items():
            assert upstream(row) > 0, label
            assert per_stub(row, upstream_queries) > 0.0, label

    def test_decoupled_survives_on_smallest_budget(self, result):
        decoupled = result.row("decoupled7d")
        assert mean_rate(decoupled) == 0.0
        assert upstream(decoupled) == min(
            upstream(row) for row in result.rows.values()
        )

    def test_only_swr_serves_stale(self, result):
        assert per_stub(result.row("swr3600s"), stale_hits) > 0.0
        for label in ("refresh+a-lru3", "refresh+a-lfu3", "decoupled7d"):
            assert per_stub(result.row(label), stale_hits) == 0.0

    def test_render_and_row_lookup(self, result):
        text = result.render()
        assert "equal upstream query budget" in text
        assert "swr3600s" in text and "decoupled7d" in text
        with pytest.raises(KeyError):
            result.row("nope")


class TestRenewal2Shapes:
    def test_result_renders_from_hand_built_rows(self):
        row = (SimpleNamespace(
            sr_attack_failure_rate=0.5, cs_attack_failure_rate=0.25,
            sr_stale_hits=10, sr_queries=100, total_outgoing=150,
        ),)
        result = ResultTable("Renewal 2.0", ("Scheme",), RENEWAL2_COLUMNS,
                             {"x": row})
        assert "50.00 %" in result.render()
        assert result.row("x") is row

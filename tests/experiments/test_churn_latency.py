"""Tests for the churn and response-time experiments."""

import pytest

from repro.experiments import churn, latency
from repro.experiments.churn import ChurnSpec
from repro.experiments.latency import LatencySpec
from repro.experiments.scenarios import Scale, make_scenario
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


@pytest.fixture(scope="module")
def churn_result():
    return churn.run(ChurnSpec(
        hierarchy=HierarchyConfig(num_tlds=6, num_slds=80, num_providers=2),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=1_500,
                                num_clients=40),
        churn_fraction=0.3,
    ))


class TestChurnExperiment:
    def test_availability_unharmed_by_churn(self, churn_result):
        # Paper §4: the long-TTL downside is latency, not correctness —
        # the parent fallback resets obsolete IRRs.
        for row in churn_result.rows.values():
            assert row.sr_failure_rate < 0.005, row.label

    def test_longer_ttls_touch_more_obsolete_servers(self, churn_result):
        vanilla = churn_result.row("vanilla").stale_touches
        seven = churn_result.row("refresh+ttl7d").stale_touches
        assert seven >= vanilla

    def test_decoupled_beats_long_ttl_on_staleness(self, churn_result):
        # Same long TTLs, but the invalidation channel evicts obsolete
        # IRRs the instant a zone migrates: fewer obsolete-server
        # touches at no availability cost (DESIGN.md §17).
        long_ttl = churn_result.row("refresh+ttl7d")
        decoupled = churn_result.row("decoupled7d")
        assert decoupled.stale_touches < long_ttl.stale_touches
        assert decoupled.sr_failure_rate <= long_ttl.sr_failure_rate

    def test_decoupled_invalidations_recorded(self, churn_result):
        assert churn_result.row("decoupled7d").invalidations > 0
        # Without the update channel the listener is a no-op.
        assert churn_result.row("refresh+ttl7d").invalidations == 0

    def test_upstream_queries_accounted_for_every_row(self, churn_result):
        for row in churn_result.rows.values():
            assert row.upstream_queries > 0, row.label

    def test_swr_row_present_with_bounded_staleness(self, churn_result):
        row = churn_result.row("swr3600s")
        assert 0.0 <= row.stale_answer_rate <= 1.0

    def test_render(self, churn_result):
        text = churn_result.render()
        assert "IRR churn" in text and "vanilla" in text
        assert "Stale answers" in text and "Upstream queries" in text

    def test_unknown_row(self, churn_result):
        with pytest.raises(KeyError):
            churn_result.row("nope")


class TestLatencyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return latency.run(LatencySpec(scale=Scale.TINY))

    def test_long_ttl_lowers_latency(self, result):
        # Fewer tree walks => lower mean wait (paper §4).
        assert result.row("refresh+ttl7d").mean_latency <= \
            result.row("vanilla").mean_latency

    def test_refresh_reduces_queries_per_lookup(self, result):
        assert result.row("refresh").cs_queries_per_lookup <= \
            result.row("vanilla").cs_queries_per_lookup

    def test_hit_rates_sane(self, result):
        for row in result.rows.values():
            assert 0.0 <= row.cache_hit_rate <= 1.0
            assert row.cs_queries_per_lookup >= 0.0

    def test_render(self, result):
        assert "Response time" in result.render()

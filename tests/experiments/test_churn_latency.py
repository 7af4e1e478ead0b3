"""Tests for the churn and response-time experiments."""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments import churn, latency
from repro.experiments.churn import ChurnSpec
from repro.experiments.harness import run_replay
from repro.experiments.latency import LatencySpec
from repro.experiments.scenarios import Scale, make_scenario
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


def obsolete_server_hits(row):
    # No attack in a churn replay: every failed upstream query went to a
    # server that no longer serves the zone.
    return row.cs_demand_failures + row.cs_renewal_failures


CHURN_SPEC = ChurnSpec(
    hierarchy=HierarchyConfig(num_tlds=6, num_slds=80, num_providers=2),
    workload=WorkloadConfig(duration_days=7.0, queries_per_day=1_500,
                            num_clients=40),
    churn_fraction=0.3,
)


@pytest.fixture(scope="module")
def churn_result():
    return churn.run(CHURN_SPEC)


class TestChurnExperiment:
    def test_availability_unharmed_by_churn(self, churn_result):
        # Paper §4: the long-TTL downside is latency, not correctness —
        # the parent fallback resets obsolete IRRs.
        for label, row in churn_result.rows.items():
            assert row.sr_failure_rate < 0.005, label

    def test_longer_ttls_touch_more_obsolete_servers(self, churn_result):
        vanilla = obsolete_server_hits(churn_result.row("vanilla"))
        seven = obsolete_server_hits(churn_result.row("refresh+ttl7d"))
        assert seven >= vanilla

    def test_decoupled_beats_long_ttl_on_staleness(self, churn_result):
        # Same long TTLs, but the invalidation channel evicts obsolete
        # IRRs the instant a zone migrates: fewer obsolete-server
        # touches at no availability cost (DESIGN.md §17).
        long_ttl = churn_result.row("refresh+ttl7d")
        decoupled = churn_result.row("decoupled7d")
        assert obsolete_server_hits(decoupled) < \
            obsolete_server_hits(long_ttl)
        assert decoupled.sr_failure_rate <= long_ttl.sr_failure_rate

    def test_decoupled_invalidations_recorded(self, churn_result):
        assert churn_result.row("decoupled7d").invalidations > 0
        # Without the update channel the listener is a no-op.
        assert churn_result.row("refresh+ttl7d").invalidations == 0

    def test_upstream_queries_accounted_for_every_row(self, churn_result):
        for label, row in churn_result.rows.items():
            assert row.total_outgoing > 0, label

    def test_swr_row_present_with_bounded_staleness(self, churn_result):
        row = churn_result.row("swr3600s")
        assert 0.0 <= row.stale_answer_rate <= 1.0

    def test_render(self, churn_result):
        text = churn_result.render()
        assert "IRR churn" in text and "vanilla" in text
        assert "Stale answers" in text and "Upstream queries" in text

    def test_rerun_renders_identically(self, churn_result):
        # Migrated servers' addresses (and so their RTTs) come from the
        # tree, not from how many migrations the process already ran.
        assert churn.run(CHURN_SPEC).render() == churn_result.render()

    def test_row_independent_of_the_schemes_before_it(self, churn_result):
        built, trace, schedule = churn.churn_world(CHURN_SPEC)
        config = ResilienceConfig.swr()
        alone = run_replay(built, trace, config, seed=CHURN_SPEC.seed,
                           churn=schedule).metrics
        assert alone == churn_result.row(config.label)

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

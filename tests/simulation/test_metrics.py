"""Tests for replay metrics and window accounting."""

import pytest

from repro.simulation.metrics import (
    DAY,
    GapSample,
    MemorySample,
    ReplayMetrics,
    WindowCounters,
)

from tests.helpers import name

ZONE = name("example.test.")


def send_cs_query(metrics, now, failed, renewal=False, latency=0.0):
    """One CS query attempt through the resolver's `record_exchange`."""
    metrics.record_exchange(now, failed, renewal, 0, 0, latency)


class TestSrAccounting:
    def test_failure_rate(self):
        metrics = ReplayMetrics()
        for index in range(10):
            metrics.record_sr_query(now=float(index), failed=index < 3)
        assert metrics.sr_queries == 10
        assert metrics.sr_failures == 3
        assert metrics.sr_failure_rate == pytest.approx(0.3)

    def test_empty_rate_is_zero(self):
        assert ReplayMetrics().sr_failure_rate == 0.0
        assert ReplayMetrics().cs_failure_rate == 0.0

    def test_cache_hit_and_nxdomain_flags(self):
        metrics = ReplayMetrics()
        metrics.record_sr_query(0.0, failed=False, cache_hit=True)
        metrics.record_sr_query(1.0, failed=False, nxdomain=True)
        assert metrics.sr_cache_hits == 1
        assert metrics.sr_nxdomain == 1


class TestCsAccounting:
    def test_demand_vs_renewal_separation(self):
        metrics = ReplayMetrics()
        send_cs_query(metrics, 0.0, failed=True)
        send_cs_query(metrics, 0.0, failed=False)
        send_cs_query(metrics, 0.0, failed=True, renewal=True)
        assert metrics.cs_demand_queries == 2
        assert metrics.cs_demand_failures == 1
        assert metrics.cs_renewal_queries == 1
        assert metrics.cs_renewal_failures == 1
        # Failure rate is demand-only; total counts everything.
        assert metrics.cs_failure_rate == pytest.approx(0.5)
        assert metrics.total_outgoing == 3


class TestWindows:
    def test_window_only_counts_inside(self):
        window = WindowCounters(10.0, 20.0)
        metrics = ReplayMetrics(window=window)
        metrics.record_sr_query(5.0, failed=True)
        metrics.record_sr_query(15.0, failed=True)
        metrics.record_sr_query(15.0, failed=False)
        metrics.record_sr_query(20.0, failed=True)  # end is exclusive
        assert window.sr_queries == 2
        assert window.sr_failures == 1
        assert window.sr_failure_rate == pytest.approx(0.5)

    def test_window_cs_ignores_renewal(self):
        window = WindowCounters(0.0, 10.0)
        metrics = ReplayMetrics(window=window)
        send_cs_query(metrics, 5.0, failed=True)
        send_cs_query(metrics, 5.0, failed=True, renewal=True)
        assert window.cs_queries == 1
        assert window.cs_failures == 1

    def test_empty_window_rates(self):
        metrics = ReplayMetrics(window=WindowCounters(0.0, 10.0))
        assert metrics.window.sr_failure_rate == 0.0
        assert metrics.window.cs_failure_rate == 0.0
        assert metrics.sr_attack_failure_rate == 0.0
        assert ReplayMetrics().cs_attack_failure_rate == 0.0


class TestOverheadAndLatency:
    def test_message_overhead(self):
        baseline = ReplayMetrics()
        for _ in range(100):
            send_cs_query(baseline, 0.0, failed=False)
        scheme = ReplayMetrics()
        for _ in range(176):
            send_cs_query(scheme, 0.0, failed=False)
        assert scheme.message_overhead_vs(baseline) == pytest.approx(0.76)

    def test_overhead_against_empty_baseline_is_zero(self):
        assert ReplayMetrics().message_overhead_vs(ReplayMetrics()) == 0.0
        assert ReplayMetrics().byte_overhead_vs(ReplayMetrics()) == 0.0

    def test_mean_latency(self):
        metrics = ReplayMetrics()
        metrics.record_sr_query(0.0, failed=False)
        metrics.record_sr_query(1.0, failed=False)
        send_cs_query(metrics, 1.0, failed=False, latency=0.2)
        send_cs_query(metrics, 1.0, failed=False, latency=0.4)
        assert metrics.mean_latency == pytest.approx(0.3)

    def test_memory_samples_accumulate(self):
        metrics = ReplayMetrics()
        metrics.record_memory(MemorySample(0.0, 1, 10))
        metrics.record_memory(MemorySample(1.0, 2, 20))
        assert [s.records_cached for s in metrics.memory_samples] == [10, 20]


class TestGapSample:
    def test_day_conversion(self):
        sample = GapSample(ZONE, gap_seconds=2 * DAY, published_ttl=3600.0)
        assert sample.gap_days == 2.0

    def test_ttl_fraction(self):
        sample = GapSample(ZONE, gap_seconds=7200.0, published_ttl=3600.0)
        assert sample.gap_as_ttl_fraction == 2.0

    def test_zero_ttl_gives_infinite_fraction(self):
        sample = GapSample(ZONE, gap_seconds=10.0, published_ttl=0.0)
        assert sample.gap_as_ttl_fraction == float("inf")


class TestGapRecording:
    def test_record_gap_collects_samples(self):
        metrics = ReplayMetrics()
        metrics.record_gap(ZONE, 100.0, 3600.0)
        metrics.record_gap(ZONE, 200.0, 3600.0)
        assert metrics.gap_samples == [
            GapSample(ZONE, 100.0, 3600.0), GapSample(ZONE, 200.0, 3600.0),
        ]

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            ReplayMetrics().record_gap(ZONE, -1.0, 3600.0)

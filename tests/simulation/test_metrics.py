"""Tests for replay metrics and window accounting."""

import pytest

from repro.simulation.metrics import MemorySample, ReplayMetrics


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
        metrics = ReplayMetrics()
        window = metrics.watch_window(10.0, 20.0)
        metrics.record_sr_query(5.0, failed=True)
        metrics.record_sr_query(15.0, failed=True)
        metrics.record_sr_query(15.0, failed=False)
        metrics.record_sr_query(20.0, failed=True)  # end is exclusive
        assert window.sr_queries == 2
        assert window.sr_failures == 1
        assert window.sr_failure_rate == pytest.approx(0.5)

    def test_window_cs_ignores_renewal(self):
        metrics = ReplayMetrics()
        window = metrics.watch_window(0.0, 10.0)
        send_cs_query(metrics, 5.0, failed=True)
        send_cs_query(metrics, 5.0, failed=True, renewal=True)
        assert window.cs_queries == 1
        assert window.cs_failures == 1

    def test_multiple_windows(self):
        metrics = ReplayMetrics()
        first = metrics.watch_window(0.0, 10.0)
        second = metrics.watch_window(5.0, 15.0)
        metrics.record_sr_query(7.0, failed=False)
        assert first.sr_queries == 1
        assert second.sr_queries == 1

    def test_empty_window_rates(self):
        metrics = ReplayMetrics()
        window = metrics.watch_window(0.0, 10.0)
        assert window.sr_failure_rate == 0.0
        assert window.cs_failure_rate == 0.0


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

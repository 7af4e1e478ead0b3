"""Tests for message/memory overhead accounting."""

import pytest

from repro.analysis.overhead import (
    ESTIMATED_BYTES_PER_RECORD,
    MemoryOverheadSeries,
)
from repro.simulation.metrics import MemorySample

DAY = 86400.0


def series(label, values, spacing=DAY / 4):
    samples = [
        MemorySample(time=index * spacing, zones_cached=value // 10,
                     records_cached=value)
        for index, value in enumerate(values)
    ]
    return MemoryOverheadSeries(label=label, samples=samples)


class TestMemoryOverheadSeries:
    def test_peaks(self):
        entry = series("x", [10, 50, 30])
        assert entry.peak_records() == 50
        assert entry.peak_zones() == 5

    def test_empty_series(self):
        entry = MemoryOverheadSeries("empty", [])
        assert entry.peak_records() == 0
        assert entry.steady_state_mean_records() == 0.0

    def test_steady_state_excludes_warmup(self):
        # 16 samples at 6 h spacing: first 8 cover days 0-2 (warm-up).
        entry = series("x", [0] * 8 + [100] * 8)
        assert entry.steady_state_mean_records(after_days=2.0) == 100.0

    def test_series_in_days(self):
        entry = series("x", [1, 2], spacing=DAY)
        assert entry.records_series() == [(0.0, 1), (1.0, 2)]
        assert entry.zones_series()[1][0] == 1.0

    def test_estimated_bytes(self):
        entry = series("x", [1000])
        assert entry.estimated_peak_bytes() == 1000 * ESTIMATED_BYTES_PER_RECORD

    def test_occupancy_ratio(self):
        base = series("DNS", [0] * 8 + [100] * 8)
        enhanced = series("combo", [0] * 8 + [250] * 8)
        assert enhanced.occupancy_ratio_vs(base) == pytest.approx(2.5)

    def test_ratio_against_empty_baseline_raises(self):
        base = MemoryOverheadSeries("DNS", [])
        enhanced = series("combo", [1, 2])
        with pytest.raises(ValueError):
            enhanced.occupancy_ratio_vs(base)

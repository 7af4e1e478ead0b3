"""Memory overhead accounting (Figure 12).

:class:`MemoryOverheadSeries` turns the replay's cache-size samples into
the zones/records-over-time series of Figure 12, plus the "how many
times vanilla" ratio the paper quotes (2–3x).  Table 2's message
overheads are ``ReplayMetrics.message_overhead_vs`` per trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.metrics import MemorySample

DAY = 86400.0

#: Rough per-record cache footprint, bytes.  Used only to express
#: Figure 12's "tens of MBytes" claim in absolute terms; the paper's own
#: estimate is equally coarse.
ESTIMATED_BYTES_PER_RECORD = 120


@dataclass
class MemoryOverheadSeries:
    """Cache-occupancy time series for one scheme's replay."""

    label: str
    samples: list[MemorySample]

    def zones_series(self) -> list[tuple[float, int]]:
        """(time_days, zones_cached) pairs."""
        return [(s.time / DAY, s.zones_cached) for s in self.samples]

    def records_series(self) -> list[tuple[float, int]]:
        """(time_days, records_cached) pairs."""
        return [(s.time / DAY, s.records_cached) for s in self.samples]

    def peak_records(self) -> int:
        return max((s.records_cached for s in self.samples), default=0)

    def peak_zones(self) -> int:
        return max((s.zones_cached for s in self.samples), default=0)

    def steady_state_mean_records(self, after_days: float = 2.0) -> float:
        """Mean cached records once the cache has warmed up."""
        cutoff = after_days * DAY
        tail = [s.records_cached for s in self.samples if s.time >= cutoff]
        if not tail:
            return 0.0
        return sum(tail) / len(tail)

    def estimated_peak_bytes(self) -> int:
        """Back-of-envelope memory footprint at peak occupancy."""
        return self.peak_records() * ESTIMATED_BYTES_PER_RECORD

    def occupancy_ratio_vs(self, baseline: "MemoryOverheadSeries",
                           after_days: float = 2.0) -> float:
        """Steady-state cached-records ratio vs ``baseline`` (paper: 2-3x)."""
        base = baseline.steady_state_mean_records(after_days)
        if base == 0:
            raise ValueError("baseline series has no steady-state samples")
        return self.steady_state_mean_records(after_days) / base

"""The shared replay summary: one dataclass, both runners.

Historically the serial runner returned :class:`~repro.experiments.
harness.ReplayResult` (live objects) while the parallel runner returned
a separate ``ReplaySummary`` with re-implemented accessors.  This module
is the single home of the summary shape: results adapt into it via
``ReplayResult.to_summary()`` / :meth:`ReplaySummary.from_result`; the
attack-window failure-rate properties both shapes need live in one
mixin, and the rates it shares with ``ReplayMetrics`` in
:class:`~repro.simulation.metrics.ReplayRates`.  ``repro.api``
re-exports everything here as the stable surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Sequence

from repro.analysis.gaps import GapSample
from repro.analysis.report import format_percent
from repro.experiments.table import ResultTable
from repro.simulation.metrics import MemorySample, ReplayRates, WindowCounters

if TYPE_CHECKING:
    from repro.experiments.harness import ReplayResult


class AttackWindowRates:
    """Attack-window failure rates for anything carrying ``window``."""

    window: "WindowCounters | None"

    @property
    def sr_attack_failure_rate(self) -> float:
        """SR failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.sr_failure_rate

    @property
    def cs_attack_failure_rate(self) -> float:
        """CS failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.cs_failure_rate


@dataclass(frozen=True)
class ReplaySummary(AttackWindowRates, ReplayRates):
    """The picklable extract of one :class:`ReplayResult`.

    Carries every number the figures/tables consume; shares the derived
    rates of :class:`~repro.simulation.metrics.ReplayMetrics` through
    :class:`~repro.simulation.metrics.ReplayRates`, so the overhead
    tables can treat summaries and metrics interchangeably.
    """

    # Returned from worker processes by pickle: REP004 keeps Callable
    # fields and lambdas out, and tests/experiments/test_parallel.py
    # round-trips a filled-in summary.

    label: str
    trace_name: str

    sr_queries: int
    sr_failures: int
    sr_cache_hits: int
    sr_nxdomain: int
    sr_validation_failures: int

    cs_demand_queries: int
    cs_demand_failures: int
    cs_renewal_queries: int
    cs_renewal_failures: int

    total_latency: float
    bytes_out: int
    bytes_in: int

    window: "WindowCounters | None" = None
    gap_samples: tuple[GapSample, ...] = ()
    memory_samples: tuple[MemorySample, ...] = ()
    event_count: int = 0
    """Observability events emitted during the replay (0 when the run
    was unobserved)."""

    # Adversary / defense accounting (all zero without an AdversarySpec;
    # mirrors the counters on ReplayMetrics so the attack experiments can
    # run through the parallel runner).
    attack_stub_queries: int = 0
    attack_cs_queries: int = 0
    attack_failures: int = 0
    flash_queries: int = 0
    budget_exhaustions: int = 0
    nxns_capped: int = 0
    poison_attempts: int = 0
    poison_wins: int = 0
    poison_stored: int = 0
    poison_cured: int = 0
    poison_dwells: tuple[float, ...] = ()

    # Renewal 2.0 accounting (zero unless `swr` / `decoupled` is armed).
    sr_stale_hits: int = 0
    swr_refreshes: int = 0
    invalidations: int = 0

    @classmethod
    def from_result(cls, result: "ReplayResult") -> "ReplaySummary":
        """Reduce a full replay result to its picklable summary.

        The result itself supplies the label, trace, window, gap samples
        and event count; every other field copies the
        :class:`~repro.simulation.metrics.ReplayMetrics` counter of the
        same name, lists frozen into tuples.
        """
        own = {"label", "trace_name", "window", "gap_samples", "event_count"}
        counters = {
            spec_field.name: getattr(result.metrics, spec_field.name)
            for spec_field in fields(cls) if spec_field.name not in own
        }
        return cls(
            label=result.label,
            trace_name=result.trace_name,
            window=result.window,
            gap_samples=(
                tuple(result.gap_tracker.samples)
                if result.gap_tracker is not None else ()
            ),
            event_count=result.event_count,
            **{name: tuple(value) if isinstance(value, list) else value
               for name, value in counters.items()},
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of stub lookups answered from the cache."""
        if self.sr_queries == 0:
            return 0.0
        return self.sr_cache_hits / self.sr_queries

    @property
    def cs_queries_per_lookup(self) -> float:
        """Demand CS -> AN queries per stub lookup (tree-walk cost)."""
        if self.sr_queries == 0:
            return 0.0
        return self.cs_demand_queries / self.sr_queries


@dataclass(frozen=True)
class FleetMemberSummary:
    """One organisation's slice of a fleet replay."""

    trace_name: str
    sr_queries: int
    window: "WindowCounters | None" = None


class FleetRates:
    """Fleet-wide aggregates and the fleet table, shared by the live
    :class:`~repro.experiments.fleet.FleetReplayResult` and the picklable
    :class:`FleetSummary`: each member has ``trace_name``,
    ``sr_queries`` and ``window``."""

    label: str
    members: "Sequence[Any]"

    def aggregate_sr_failure_rate(self) -> float:
        """Fleet-wide SR failure fraction inside the attack window."""
        windows = [m.window for m in self.members if m.window is not None]
        queries = sum(window.sr_queries for window in windows)
        if queries == 0:
            return 0.0
        return self.total_failed_lookups() / queries

    def total_failed_lookups(self) -> int:
        """The §6 damage currency: failed lookups across the fleet."""
        return sum(
            member.window.sr_failures for member in self.members
            if member.window is not None
        )

    def member(self, trace_name: str) -> Any:
        for entry in self.members:
            if entry.trace_name == trace_name:
                return entry
        raise KeyError(trace_name)

    def render(self) -> str:
        def rate(window: "WindowCounters | None", metric: str) -> str:
            if window is None:
                return "-"
            return format_percent(getattr(window, metric))

        rows = {
            member.trace_name: (
                member.sr_queries,
                rate(member.window, "sr_failure_rate"),
                rate(member.window, "cs_failure_rate"),
            )
            for member in self.members
        }
        rows["fleet"] = (
            sum(member.sr_queries for member in self.members),
            format_percent(self.aggregate_sr_failure_rate()),
            "-",
        )
        headers = ("Lookups", "SR failures (attack)", "CS failures (attack)")
        return ResultTable(
            f"Fleet replay — scheme: {self.label}", ("Organisation",),
            tuple((header, itemgetter(index))
                  for index, header in enumerate(headers)),
            rows,
        ).render()


@dataclass
class FleetSummary(FleetRates):
    """Picklable fleet outcome: per-member windows plus aggregates."""

    label: str
    members: list[FleetMemberSummary] = field(default_factory=list)


def summarize_replay(result: "ReplayResult") -> ReplaySummary:
    """Reduce a full replay result to its picklable summary."""
    return ReplaySummary.from_result(result)

"""One function per paper figure/table (the per-experiment index of
DESIGN.md §4 maps each to its row of the artifact bench).

Each function runs its replays as one batch and returns a
:class:`~repro.experiments.table.ResultTable` (Figure 3, two CDFs, is
the exception); the bench prints its ``render()`` text and
EXPERIMENTS.md records it against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.analysis.cdf import Cdf
from repro.analysis.overhead import MemoryOverheadSeries
from repro.analysis.report import render_series
from repro.core.config import ResilienceConfig
from repro.experiments.attack_grid import (
    CREDITS,
    LONG_TTL_DAYS,
    run_duration_grid,
    run_scheme_grid,
    week_trace_names,
)
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.scenarios import Scenario
from repro.experiments.table import ResultTable
from repro.workload.stats import compute_statistics

DAY = 86400.0

#: X-axis points for the Figure 3 CDFs.
GAP_DAY_POINTS = (0.25, 0.5, 1, 2, 3, 4, 5, 7, 10)
GAP_FRACTION_POINTS = (0.5, 1, 2, 5, 10, 20, 50, 100)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

#: Table 1's cells after the trace name, as ``TraceStatistics.as_row``
#: lays them out.
TABLE1_HEADERS = (
    "Duration", "Clients", "Requests In", "Requests Out", "Names", "Zones",
)


def table1(scenario: Scenario, include_month: bool = True,
           measure_requests_out: bool = True) -> ResultTable:
    """Table 1: per-trace statistics; requests-out measured by vanilla replay.

    A row is the trace's :class:`~repro.workload.stats.TraceStatistics`.
    """
    names = list(Scenario.WEEK_TRACES)
    if include_month:
        names.append(Scenario.MONTH_TRACE)
    replays = run_rows(
        ((name, ReplaySpec.for_scenario(scenario, name,
                                        ResilienceConfig.vanilla()))
         for name in names if measure_requests_out),
    )
    rows = {
        name: compute_statistics(
            scenario.trace(name), tree=scenario.built.tree,
            requests_out=(replays[name].total_outgoing if name in replays
                          else None),
        )
        for name in names
    }
    columns = tuple(
        (header, lambda row, index=index: row.as_row()[index])
        for index, header in enumerate(TABLE1_HEADERS, start=1)
    )
    return ResultTable(
        "Table 1 — DNS trace statistics (synthetic workload)",
        ("Trace",), columns, rows,
    )


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------

@dataclass
class GapCdfs:
    """Figure 3's two CDFs over the gap samples of the week traces.

    The one artifact that is not rows: its replays run like every
    other's, but it reads as two distributions.
    """

    sample_count: int
    cdf_days: Cdf
    cdf_fraction: Cdf

    @property
    def fraction_under_5_days(self) -> float:
        return self.cdf_days.probability_at_or_below(5.0)

    def render(self) -> str:
        days = render_series(
            "Figure 3 (upper) — gap duration CDF",
            self.cdf_days.evaluate(GAP_DAY_POINTS),
            x_name="days",
            y_name="CDF",
        )
        fractions = render_series(
            "Figure 3 (lower) — gap / TTL CDF",
            self.cdf_fraction.evaluate(GAP_FRACTION_POINTS),
            x_name="gap as fraction of TTL",
            y_name="CDF",
        )
        summary = (
            f"samples: {self.sample_count}; "
            f"gaps under 5 days: {self.fraction_under_5_days * 100:.1f} %"
        )
        return f"{days}\n\n{fractions}\n\n{summary}"


def figure3(scenario: Scenario, trace_limit: int | None = None) -> GapCdfs:
    """Figure 3: expiry-to-next-query gap CDFs from vanilla replays."""
    replays = run_rows(
        ((name, ReplaySpec.for_scenario(scenario, name,
                                        ResilienceConfig.vanilla(),
                                        track_gaps=True))
         for name in week_trace_names(scenario, trace_limit)),
    )
    samples = [
        sample for record in replays.values()
        for sample in record.gap_samples
    ]
    return GapCdfs(
        sample_count=len(samples),
        cdf_days=Cdf.from_samples(sample.gap_days for sample in samples),
        cdf_fraction=Cdf.from_samples(
            sample.gap_as_ttl_fraction for sample in samples
        ),
    )


# ---------------------------------------------------------------------------
# Figures 4-11 (attack grids)
# ---------------------------------------------------------------------------

def figure4(scenario: Scenario, trace_limit: int | None = None,
            seed: int = 0) -> ResultTable:
    """Figure 4: vanilla DNS under 3/6/12/24 h root+TLD attacks."""
    return run_duration_grid(
        scenario, ResilienceConfig.vanilla(), "Figure 4 — Vanilla DNS",
        trace_limit=trace_limit, seed=seed,
    )


def figure5(scenario: Scenario, trace_limit: int | None = None,
            seed: int = 0) -> ResultTable:
    """Figure 5: TTL refresh under 3/6/12/24 h attacks."""
    return run_duration_grid(
        scenario, ResilienceConfig.refresh(), "Figure 5 — TTL Refresh",
        trace_limit=trace_limit, seed=seed,
    )


_POLICY_FIGURES = {
    "lru": ("Figure 6 — TTL Refresh + Renew (LRU)", "LRU"),
    "lfu": ("Figure 7 — TTL Refresh + Renew (LFU)", "LFU"),
    "a-lru": ("Figure 8 — TTL Refresh + Renew (A-LRU)", "A-LRU"),
    "a-lfu": ("Figure 9 — TTL Refresh + Renew (A-LFU)", "A-LFU"),
}


def renewal_figure(
    scenario: Scenario,
    policy: str,
    credits: tuple[int, ...] = CREDITS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Figures 6-9: refresh + one renewal policy at credits 1/3/5, 6 h attack."""
    title, short = _POLICY_FIGURES[policy]
    variants = [
        (f"{short} {credit}", ResilienceConfig.refresh_renew(policy, credit))
        for credit in credits
    ]
    return run_scheme_grid(scenario, variants, title, trace_limit=trace_limit,
                           seed=seed)


def figure6(scenario: Scenario, **kwargs: Any) -> ResultTable:
    """Figure 6: refresh + LRU renewal."""
    return renewal_figure(scenario, "lru", **kwargs)


def figure7(scenario: Scenario, **kwargs: Any) -> ResultTable:
    """Figure 7: refresh + LFU renewal."""
    return renewal_figure(scenario, "lfu", **kwargs)


def figure8(scenario: Scenario, **kwargs: Any) -> ResultTable:
    """Figure 8: refresh + A-LRU renewal."""
    return renewal_figure(scenario, "a-lru", **kwargs)


def figure9(scenario: Scenario, **kwargs: Any) -> ResultTable:
    """Figure 9: refresh + A-LFU renewal."""
    return renewal_figure(scenario, "a-lfu", **kwargs)


def figure10(
    scenario: Scenario,
    days: tuple[int, ...] = LONG_TTL_DAYS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Figure 10: refresh + long IRR TTLs of 1/3/5/7 days, 6 h attack."""
    variants = [
        (f"{value} Day TTL", ResilienceConfig.refresh_long_ttl(value))
        for value in days
    ]
    return run_scheme_grid(
        scenario, variants, "Figure 10 — TTL Refresh + Long-TTL",
        trace_limit=trace_limit, seed=seed,
    )


def figure11(
    scenario: Scenario,
    days: tuple[int, ...] = LONG_TTL_DAYS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Figure 11: refresh + A-LFU 3 renewal + long TTLs of 1/3/5/7 days."""
    variants = [
        (f"{value} Day TTL", ResilienceConfig.combination(days=value))
        for value in days
    ]
    return run_scheme_grid(
        scenario, variants, "Figure 11 — TTL Refresh + Renew + Long-TTL",
        trace_limit=trace_limit, seed=seed,
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

#: The schemes Table 2 reports, in the paper's row order.
TABLE2_SCHEMES: tuple[tuple[str, ResilienceConfig], ...] = (
    ("Refresh", ResilienceConfig.refresh()),
    ("LRU", ResilienceConfig.refresh_renew("lru", 3)),
    ("LFU", ResilienceConfig.refresh_renew("lfu", 3)),
    ("A-LRU", ResilienceConfig.refresh_renew("a-lru", 3)),
    ("A-LFU", ResilienceConfig.refresh_renew("a-lfu", 3)),
    ("Long-TTL", ResilienceConfig.refresh_long_ttl(7)),
    ("Combination", ResilienceConfig.combination(days=3, policy="a-lfu", credit=3)),
)


def table2(
    scenario: Scenario,
    schemes: tuple[tuple[str, ResilienceConfig], ...] = TABLE2_SCHEMES,
    trace_limit: int | None = 3,
    seed: int = 0,
) -> ResultTable:
    """Table 2: outgoing-message overhead of every scheme vs vanilla.

    The (trace × scheme) replays — baseline included — form one batch.
    A row is the pair (mean message overhead, mean byte overhead) over
    the traces, each trace's scheme measured against its own baseline.
    """
    names = week_trace_names(scenario, trace_limit)
    columns = (("__baseline__", ResilienceConfig.vanilla()), *schemes)
    replays = run_rows(
        ((label, ReplaySpec.for_scenario(scenario, name, config, seed=seed))
         for name in names
         for label, config in columns),
        grouped=True,
    )
    baseline = replays.pop("__baseline__")

    def mean(overheads: Iterable[float]) -> float:
        return sum(overheads) / len(names)

    rows = {
        label: (
            mean(s.message_overhead_vs(b) for s, b in zip(row, baseline)),
            mean(s.byte_overhead_vs(b) for s, b in zip(row, baseline)),
        )
        for label, row in replays.items()
    }
    return ResultTable(
        "Table 2 — traffic overhead vs vanilla (no attack)", ("Scheme",),
        (("Message overhead", lambda row: f"{row[0] * 100:+.1f} %"),
         ("Byte overhead", lambda row: f"{row[1] * 100:+.1f} %")),
        rows,
    )


# ---------------------------------------------------------------------------
# Figure 12
# ---------------------------------------------------------------------------

#: Figure 12's legend: vanilla plus every scheme at its strongest setting.
FIGURE12_SCHEMES: tuple[tuple[str, ResilienceConfig], ...] = (
    ("DNS", ResilienceConfig.vanilla()),
    ("LRU 5", ResilienceConfig.refresh_renew("lru", 5)),
    ("LFU 5", ResilienceConfig.refresh_renew("lfu", 5)),
    ("A-LRU 5", ResilienceConfig.refresh_renew("a-lru", 5)),
    ("A-LFU 5", ResilienceConfig.refresh_renew("a-lfu", 5)),
    ("Long-TTL", ResilienceConfig.refresh_long_ttl(7)),
    ("Combination", ResilienceConfig.combination(days=3, policy="a-lfu", credit=5)),
)


def figure12(
    scenario: Scenario,
    schemes: tuple[tuple[str, ResilienceConfig], ...] = FIGURE12_SCHEMES,
    sample_interval: float = 6 * 3600.0,
    seed: int = 0,
) -> ResultTable:
    """Figure 12: cached zones/records over time for each scheme (TRC6).

    A row is the scheme's :class:`MemoryOverheadSeries`; the "vs DNS"
    column is its steady-state occupancy over the DNS row's.
    """
    replays = run_rows(
        ((label, ReplaySpec.for_scenario(
            scenario, Scenario.MONTH_TRACE, config,
            memory_sample_interval=sample_interval, seed=seed,
        )) for label, config in schemes),
    )
    rows = {
        label: MemoryOverheadSeries(label=label,
                                    samples=list(record.memory_samples))
        for label, record in replays.items()
    }
    baseline = rows.get("DNS")

    def ratio(series: MemoryOverheadSeries) -> str:
        value = 1.0 if baseline is None else series.occupancy_ratio_vs(baseline)
        return f"{value:.2f}x"

    return ResultTable(
        "Figure 12 — memory overhead over the one-month trace (TRC6)",
        ("Scheme",),
        (
            ("Peak zones", lambda series: series.peak_zones()),
            ("Peak records", lambda series: series.peak_records()),
            ("Steady records",
             lambda series: f"{series.steady_state_mean_records():,.0f}"),
            ("vs DNS", ratio),
            ("Est. peak mem",
             lambda series: f"{series.estimated_peak_bytes() / 1e6:.1f} MB"),
        ),
        rows,
    )

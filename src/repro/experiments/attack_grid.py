"""Shared machinery for the Figures 4–11 attack grids.

Each figure is a grid of (trace × column) failure rates under the
root+TLD attack starting at day 7.  Columns are attack durations
(Figures 4–5) or scheme variants at a fixed 6-hour attack
(Figures 6–11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.table import (
    CS,
    FAILURE_PANELS,
    SR,
    Metric,
    ResultTable,
    grid_columns,
    percent,
)
from repro.simulation.metrics import ReplayMetrics

HOUR = 3600.0

#: The paper's attack durations (Figures 4, 5).
DURATIONS_HOURS = (3, 6, 12, 24)

#: The paper's renewal credits (Figures 6-9).
CREDITS = (1, 3, 5)

#: The paper's long-TTL values in days (Figures 10, 11).
LONG_TTL_DAYS = (1, 3, 5, 7)


def week_trace_names(scenario: Scenario, limit: int | None) -> tuple[str, ...]:
    """TRC1..TRC5 at this scale (or the first ``limit`` of them)."""
    return Scenario.WEEK_TRACES[: limit or scenario.parameters.week_trace_count]


def run_grid(
    scenario: Scenario,
    title: str,
    columns: Sequence[tuple[str, ResilienceConfig, AttackSpec]],
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """One replay per (week trace × ``(label, config, attack)`` column).

    Rows are traces, rendered as the two-panel SR/CS figure.
    """
    pairs = [
        (trace_name, ReplaySpec.for_scenario(scenario, trace_name, config,
                                             attack=attack, seed=seed))
        for trace_name in week_trace_names(scenario, trace_limit)
        for _, config, attack in columns
    ]
    return ResultTable(
        title, ("trace",),
        grid_columns((label for label, _, _ in columns), percent(SR, 1)),
        run_rows(pairs, grouped=True),
        panels=FAILURE_PANELS,
    )


@dataclass(frozen=True)
class AttackGridSpec:
    """Declarative duration-grid request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    scheme: str = "vanilla"
    trace_limit: int | None = None
    durations_hours: tuple[int, ...] = DURATIONS_HOURS


def run(spec: AttackGridSpec) -> ResultTable:
    """Registry entry point: one scheme's failure grid over durations."""
    config = parse_scheme(spec.scheme)
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    return run_duration_grid(
        scenario,
        config,
        title=f"Attack durations — {config.label}",
        durations_hours=spec.durations_hours,
        trace_limit=spec.trace_limit,
    )


def run_duration_grid(
    scenario: Scenario,
    config: ResilienceConfig,
    title: str,
    durations_hours: tuple[int, ...] = DURATIONS_HOURS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Figures 4 and 5: one scheme, attack durations as columns."""
    columns = [
        (f"{hours} h", config,
         AttackSpec(start=scenario.attack_start, duration=hours * HOUR))
        for hours in durations_hours
    ]
    return run_grid(scenario, title, columns, trace_limit, seed)


def run_scheme_grid(
    scenario: Scenario,
    variants: list[tuple[str, ResilienceConfig]],
    title: str,
    attack_hours: float = 6.0,
    trace_limit: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Figures 6-11: fixed 6-hour attack; the scheme variants as columns,
    after the "DNS" (vanilla) contrast column the paper includes."""
    attack = AttackSpec(start=scenario.attack_start, duration=attack_hours * HOUR)
    columns = [
        (label, config, attack)
        for label, config in (("DNS", ResilienceConfig.vanilla()), *variants)
    ]
    return run_grid(scenario, title, columns, trace_limit, seed)


# ---------------------------------------------------------------------------
# Renewal 2.0: swr / decoupled vs credit-based renewal at equal budget
# ---------------------------------------------------------------------------

#: The default comparison set: the paper's adaptive renewal policies
#: against the two post-paper families, all spelled in scheme syntax.
RENEWAL2_SCHEMES = ("a-lru:3", "a-lfu:3", "swr", "decoupled:7")


def mean_rate(records: Sequence[ReplayMetrics], metric: Metric = SR) -> float:
    """A failure rate averaged over a row's traces."""
    rates = [metric(record) for record in records]
    return sum(rates) / len(rates)


def per_stub(records: Sequence[ReplayMetrics], count: Metric) -> float:
    """``count`` summed over a row's traces, per stub query."""
    stub = sum(record.sr_queries for record in records)
    return sum(count(record) for record in records) / stub if stub else 0.0


def upstream(records: Sequence[ReplayMetrics]) -> int:
    """Demand + renewal queries over a row's traces: the equal-budget
    currency the comparison normalises schemes by."""
    return sum(record.total_outgoing for record in records)


RENEWAL2_COLUMNS = (
    ("SR fail (attack)", lambda row: f"{mean_rate(row, SR) * 100:.2f} %"),
    ("CS fail (attack)", lambda row: f"{mean_rate(row, CS) * 100:.2f} %"),
    ("Stale answers",
     lambda row: f"{per_stub(row, lambda s: s.sr_stale_hits) * 100:.2f} %"),
    ("Upstream queries", upstream),
    ("Upstream/stub",
     lambda row: f"{per_stub(row, lambda s: s.total_outgoing):.3f}"),
)


@dataclass(frozen=True)
class Renewal2Spec:
    """Declarative Renewal 2.0 comparison request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    attack_hours: float = 6.0
    trace_limit: int | None = None
    schemes: tuple[str, ...] = RENEWAL2_SCHEMES


def run_renewal2(spec: Renewal2Spec) -> ResultTable:
    """Registry entry point: replay every scheme over the week traces.

    All schemes replay the same traces, seed and attack; a row holds one
    record per trace, and the table reports failure rates side by side
    with the upstream-query spend so the comparison is read at equal
    budget (the ``Upstream queries`` column normalises the figure).
    """
    configs = [parse_scheme(scheme) for scheme in spec.schemes]
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    attack = AttackSpec(start=scenario.attack_start,
                        duration=spec.attack_hours * HOUR)
    pairs = [
        (config.label,
         ReplaySpec.for_scenario(scenario, trace_name, config, attack=attack))
        for config in configs
        for trace_name in week_trace_names(scenario, spec.trace_limit)
    ]
    return ResultTable(
        f"Renewal 2.0 — {spec.attack_hours:g} h attack, schemes compared at "
        "equal upstream query budget (demand + renewal)",
        ("Scheme",), RENEWAL2_COLUMNS, run_rows(pairs, grouped=True),
    )

"""Fleet replay: every organisation's caching server under one attack.

The paper's Table 1 lists six caching servers from five organisations;
its §6 maximum-damage discussion defines damage "across all caching
servers (or stub-resolvers)".  A fleet member is an ordinary replay of
its organisation's trace (member ``i`` at resolver seed ``seed + i``):
the members share no cache and no state that changes an outcome, so a
fleet is one row per member, and §6's damage count is their sum.

Each scheme's table shows the per-organisation rows plus a ``fleet``
row holding every member's record, so fleet-level questions ("how many
lookups did the Internet lose?") have a first-class answer.
"""

from __future__ import annotations

from repro.analysis.report import format_percent
from repro.core.config import ResilienceConfig
from repro.experiments.attack_grid import week_trace_names
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.scenarios import Scenario
from repro.experiments.table import ResultTable
from repro.simulation.metrics import ReplayMetrics

#: The row key of the fleet-wide aggregate.
FLEET = "fleet"


def total_failed_lookups(members: tuple[ReplayMetrics, ...]) -> int:
    """The §6 damage currency: failed lookups across the fleet."""
    return sum(
        member.window.sr_failures for member in members
        if member.window is not None
    )


def aggregate_sr_failure_rate(members: tuple[ReplayMetrics, ...]) -> float:
    """Fleet-wide SR failure fraction inside the attack window."""
    queries = sum(
        member.window.sr_queries for member in members
        if member.window is not None
    )
    if queries == 0:
        return 0.0
    return total_failed_lookups(members) / queries


#: A fleet table row: an organisation's record, or the tuple of every
#: member's under the ``fleet`` key.
Row = ReplayMetrics | tuple[ReplayMetrics, ...]


def _members(row: Row) -> tuple[ReplayMetrics, ...]:
    return row if isinstance(row, tuple) else (row,)


def _cs_cell(row: Row) -> str:
    # CS failures are reported per organisation only.
    if isinstance(row, tuple) or row.window is None:
        return "-"
    return format_percent(row.window.cs_failure_rate)


FLEET_COLUMNS = (
    ("Lookups", lambda row: sum(member.sr_queries for member in _members(row))),
    ("SR failures (attack)",
     lambda row: format_percent(aggregate_sr_failure_rate(_members(row)))),
    ("CS failures (attack)", _cs_cell),
)


def fleet_attack_comparison(
    scenario: Scenario,
    schemes: list[ResilienceConfig] | None = None,
    attack: AttackSpec | None = None,
    trace_limit: int | None = None,
    seed: int = 0,
) -> dict[str, ResultTable]:
    """The standard fleet experiment: all organisations, per scheme.

    ``attack`` defaults to the paper's 6 h root+TLD attack from day 7.
    Every (scheme, member) replay is one row of a single batch, so with
    ``$REPRO_WORKERS`` above 1 the members run concurrently.
    """
    schemes = schemes or [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh(),
        ResilienceConfig.combination(),
    ]
    attack = attack or AttackSpec(start=scenario.attack_start)
    trace_names = week_trace_names(scenario, trace_limit)
    fleets = run_rows(
        ((config.label, ReplaySpec.for_scenario(
            scenario, trace_name, config, attack=attack, seed=seed + index,
        ))
         for config in schemes
         for index, trace_name in enumerate(trace_names)),
        grouped=True,
    )
    return {
        label: ResultTable(
            f"Fleet replay — scheme: {label}", ("Organisation",), FLEET_COLUMNS,
            {**dict(zip(trace_names, members)), FLEET: members},
        )
        for label, members in fleets.items()
    }

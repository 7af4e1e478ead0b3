"""NXNS amplification sweep: delegation fan-out × fetch budget.

The NXNS attack (Afek et al., USENIX Security 2020) turns a recursive
resolver into a query cannon: each attack query lands in an
attacker-controlled zone whose delegations name ``fan_out`` unresolvable
out-of-bailiwick NS hosts, and a defenseless resolver dutifully chases
every one.  This experiment grafts that zone onto the standard
hierarchy, fires a fixed-rate attack query stream through the resolver,
and sweeps the fan-out (columns) against the resolver's per-query fetch
budget (rows; 0 = no defense).  Each cell reports the *amplification
factor* — CS-side queries provoked per injected attack query — and the
whole-run SR failure rate of the legitimate trace, so the table shows
both whether the defense clamps the amplification and what collateral
damage the clamp inflicts on honest traffic.

All cells are independent replays fanned out through the batch runner;
the hash-keyed adversary draws keep every cell byte-identical at any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.table import ResultTable, grid_columns
from repro.simulation.adversary import AdversarySpec, NxnsAttackSpec

HOUR = 3600.0


@dataclass(frozen=True)
class AmplificationSpec:
    """Declarative NXNS-sweep request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    scheme: str = "vanilla"
    trace_name: str = "TRC1"
    attack_hours: float = 6.0
    """Attack duration; the campaign starts at the paper's day-7 mark."""

    queries_per_minute: float = 60.0
    """Attack query arrival rate (evenly spaced)."""

    delegations: int = 50
    """Distinct delegated children in the attacker zone."""

    fan_outs: tuple[int, ...] = (2, 5, 10, 20)
    """Unresolvable NS names per delegation, swept as columns."""

    fetch_budgets: tuple[int, ...] = (0, 20, 8)
    """Per-query fetch budgets swept as rows; 0 = no defense."""


def _defended(base: ResilienceConfig, budget: int) -> ResilienceConfig:
    """The config for one budget row; 0 keeps the undefended baseline."""
    if budget <= 0:
        return base.with_label(f"{base.label}+nodefense")
    return base.with_defenses(fetch_budget=budget)


def run(spec: AmplificationSpec) -> ResultTable:
    """Registry entry point: sweep fan-out × fetch budget.

    Raises:
        ValueError: when either sweep axis is empty or a swept value is
            negative.
    """
    if not spec.fan_outs:
        raise ValueError("need at least one fan-out")
    if not spec.fetch_budgets:
        raise ValueError("need at least one fetch budget")
    for fan in spec.fan_outs:
        if fan < 1:
            raise ValueError(f"fan-out must be positive, got {fan}")
    for budget in spec.fetch_budgets:
        if budget < 0:
            raise ValueError(f"fetch budget must be >= 0, got {budget}")
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    base = parse_scheme(spec.scheme)
    configs = [_defended(base, budget) for budget in spec.fetch_budgets]
    pairs = [
        ("off" if budget == 0 else f"b={budget}", ReplaySpec.for_scenario(
            scenario,
            spec.trace_name,
            config,
            seed=spec.seed,
            adversary=AdversarySpec(
                nxns=NxnsAttackSpec(
                    start=scenario.attack_start,
                    duration=spec.attack_hours * HOUR,
                    queries_per_minute=spec.queries_per_minute,
                    fan_out=fan,
                    delegations=spec.delegations,
                )
            ),
        ))
        for budget, config in zip(spec.fetch_budgets, configs)
        for fan in spec.fan_outs
    ]
    return ResultTable(
        f"NXNS amplification factor / SR failure rate ({spec.scheme})",
        ("Budget",),
        grid_columns(
            (f"fan={fan}" for fan in spec.fan_outs),
            lambda record: f"{record.amplification_factor:.1f}x"
                           f" {record.sr_failure_rate * 100:.2f}%",
        ),
        run_rows(pairs, grouped=True),
    )

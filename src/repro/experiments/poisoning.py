"""Cache-poisoning sweep: injection rate × scheme, dwell-time CDFs.

An off-path forger races honest answers at the resolver's network edge
(DESIGN.md §16): each upstream A-query gives it one BLAKE2b-keyed
chance to substitute a forged authoritative answer.  What happens next
is decided by the machinery this repo already models — RFC 2181
credibility ranking decides what the forgery may displace, and the TTL
policy under test decides how long a stuck forgery survives.  This
experiment sweeps the injection rate (columns) against the scheme
ladder, pairing every scheme with a *guarded* variant (hardened
ranking + source-port entropy), and reports per cell how many
forgeries stuck and the dwell-time distribution — how long poisoned
data stayed servable before cure, expiry or eviction.

Long-TTL schemes are the interesting rows: the paper's resilience
mechanism (stretching TTLs) is exactly what stretches poison dwell
times, and the guard columns quantify how much of that risk the
ranking defenses claw back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.table import ResultTable, grid_columns
from repro.simulation.adversary import AdversarySpec, PoisonAttackSpec
from repro.simulation.metrics import ReplayMetrics


@dataclass(frozen=True)
class PoisoningSpec:
    """Declarative poisoning-sweep request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    schemes: str = "vanilla,long-ttl:7"
    """Comma-separated scheme ladder; each scheme also gets a guarded
    row (hardened ranking + entropy)."""

    trace_name: str = "TRC1"
    rates: tuple[float, ...] = (0.01, 0.05, 0.2)
    """Forgery attempt probabilities per upstream query, swept as
    columns."""

    success: float = 0.5
    """Race-win probability per attempt (before the entropy discount)."""

    ttl: float = 3600.0
    """TTL carried by forged records."""

    entropy_bits: int = 16
    """Source-entropy bits the guarded rows add; each bit halves the
    forger's race odds (20 bits ~ random port + ID)."""


def _cell_text(record: ReplayMetrics) -> str:
    """``'N stuck'``, plus the dwell-time p50/p90 when anything stuck."""
    dwells = record.poison_dwells
    if not dwells:
        return f"{record.poison_stored} stuck"
    return (
        f"{record.poison_stored} stuck"
        f" p50={_fmt_secs(_percentile(dwells, 0.50))}"
        f" p90={_fmt_secs(_percentile(dwells, 0.90))}"
    )


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _fmt_secs(seconds: float) -> str:
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.0f}m"
    return f"{seconds:.0f}s"


def _guarded(base: ResilienceConfig, entropy_bits: int) -> ResilienceConfig:
    """The hardened variant of ``base``: ranking + source entropy."""
    return replace(
        base,
        harden_ranking=True,
        source_entropy_bits=entropy_bits,
        label=f"{base.label}+guard",
    )


def run(spec: PoisoningSpec) -> ResultTable:
    """Registry entry point: sweep injection rate × scheme (+guard).

    Raises:
        ValueError: when either sweep axis is empty, a rate falls
            outside (0, 1], or ``entropy_bits`` is negative.
    """
    scheme_names = [
        name.strip() for name in spec.schemes.split(",") if name.strip()
    ]
    if not scheme_names:
        raise ValueError("need at least one scheme")
    if not spec.rates:
        raise ValueError("need at least one injection rate")
    for rate in spec.rates:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"injection rate must be in (0, 1], got {rate}")
    if spec.entropy_bits < 0:
        raise ValueError("entropy_bits must be >= 0")
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    configs: list[ResilienceConfig] = []
    for name in scheme_names:
        base = parse_scheme(name)
        configs.append(base)
        configs.append(_guarded(base, spec.entropy_bits))
    pairs = [
        (config.label, ReplaySpec.for_scenario(
            scenario,
            spec.trace_name,
            config,
            seed=spec.seed,
            adversary=AdversarySpec(
                poison=PoisonAttackSpec(
                    rate=rate, success=spec.success, ttl=spec.ttl,
                )
            ),
        ))
        for config in configs
        for rate in spec.rates
    ]
    return ResultTable(
        "Poisoned entries stored / dwell time before cure",
        ("Scheme",),
        grid_columns((f"rate={rate:g}" for rate in spec.rates), _cell_text),
        run_rows(pairs, grouped=True),
    )

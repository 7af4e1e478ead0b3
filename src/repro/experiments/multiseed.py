"""Multi-seed replication: means and spreads instead of single numbers.

Single-replay cells can be noisy — a handful of unlucky zones lapsing
inside the attack window moves a percentage point or two (and the CS
ratio much more, since its denominator shrinks as caching improves).
This runner replays the same (trace, scheme, attack) under several
resolver seeds and reports mean ± sample standard deviation, the honest
form of every headline number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.table import CS, SR, Metric, ResultTable
from repro.simulation.metrics import ReplayMetrics

HOUR = 3600.0


@dataclass(frozen=True)
class SeedStatistics:
    """Mean ± std of one metric over seeds."""

    mean: float
    std: float
    samples: tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: list[float]) -> "SeedStatistics":
        if not samples:
            raise ValueError("no samples")
        mean = sum(samples) / len(samples)
        if len(samples) == 1:
            std = 0.0
        else:
            variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
            std = math.sqrt(variance)
        return cls(mean=mean, std=std, samples=tuple(samples))

    def __str__(self) -> str:
        return f"{self.mean * 100:.2f} ± {self.std * 100:.2f} %"


def seed_spread(
    records: Sequence[ReplayMetrics], metric: Metric = SR
) -> SeedStatistics:
    """Mean ± std of ``metric`` over one row's per-seed records."""
    return SeedStatistics.from_samples([metric(s) for s in records])


DEFAULT_SCHEMES = (
    ResilienceConfig.vanilla(),
    ResilienceConfig.refresh(),
    ResilienceConfig.refresh_renew("a-lfu", 5),
    ResilienceConfig.combination(),
)


@dataclass(frozen=True)
class MultiSeedSpec:
    """Declarative multi-seed replication request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    trace_name: str = "TRC1"
    attack_hours: float = 6.0


def run(spec: MultiSeedSpec) -> ResultTable:
    """Registry entry point: replicate the headline rates across seeds."""
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    return _multiseed_experiment(
        scenario,
        seeds=spec.seeds,
        trace_name=spec.trace_name,
        attack_hours=spec.attack_hours,
    )


def _multiseed_experiment(
    scenario: Scenario,
    schemes: Sequence[ResilienceConfig] = DEFAULT_SCHEMES,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    trace_name: str = "TRC1",
    attack_hours: float = 6.0,
) -> ResultTable:
    """Replay one trace per scheme across several resolver seeds.

    The scheme × seed replays are independent and run as one batch; a
    row holds one record per seed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    attack = AttackSpec(start=scenario.attack_start,
                        duration=attack_hours * HOUR)
    pairs = [
        (config.label, ReplaySpec.for_scenario(scenario, trace_name, config,
                                               attack=attack, seed=seed))
        for config in schemes
        for seed in seeds
    ]
    return ResultTable(
        f"Multi-seed replication over seeds {list(seeds)} "
        "(6 h root+TLD attack)",
        ("Scheme",),
        (("SR failures (mean ± std)", lambda row: str(seed_spread(row, SR))),
         ("CS failures (mean ± std)", lambda row: str(seed_spread(row, CS)))),
        run_rows(pairs, grouped=True),
    )

"""Graceful-degradation sweep: attack intensity × retry policy.

The paper's attack model is binary — a targeted server answers nothing
for the whole window.  Real DDoS events are messier: congestion drops
*some* fraction of queries, and resolver-side retransmit policy decides
how much of that loss the stub resolvers ever see.  This experiment
sweeps the fault-injection layer's per-query attack ``intensity``
(DESIGN.md §11) against a ladder of :class:`~repro.core.config.
RetryPolicy` aggressiveness and reports, per policy, the *knee*: the
smallest intensity whose attack-window SR failure rate exceeds a
threshold.  A scheme degrades gracefully when its knee sits near 1.0
(only a near-blackout hurts) and sharply when a modest loss rate
already pushes user-visible failures past the threshold.

All cells are independent replays and fan out through the batch runner
(``$REPRO_WORKERS``); the hash-keyed fault draws keep every cell
byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import ResilienceConfig, RetryPolicy
from repro.core.schemes import parse_scheme
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.table import ResultTable, grid_columns
from repro.simulation.faults import FaultSpec
from repro.simulation.metrics import ReplayMetrics

HOUR = 3600.0


@dataclass(frozen=True)
class DegradationSpec:
    """Declarative degradation-sweep request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    scheme: str = "refresh"
    trace_name: str = "TRC1"
    attack_hours: float = 6.0
    intensities: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    """Attack drop probabilities swept as columns (1.0 = blackout)."""

    retry_tries: tuple[int, ...] = (1, 2, 3)
    """``max_tries`` per policy row; 0 means no retry policy (baseline)."""

    loss: float = 0.0
    """Background packet loss applied everywhere, attack or not."""

    holddown: float = 900.0
    """Dead-server hold-down seconds for the retry rows; <= 0 disables."""

    knee_threshold: float = 0.05
    """SR failure rate a cell must exceed to count as degraded."""


def knee(
    row: Sequence[ReplayMetrics], intensities: Sequence[float], threshold: float
) -> float | None:
    """Smallest swept intensity whose SR rate exceeds ``threshold`` (None
    when the policy row stays under it across the whole sweep)."""
    for intensity, record in zip(intensities, row):
        if record.sr_attack_failure_rate > threshold:
            return intensity
    return None


def _policy_config(
    base: ResilienceConfig, tries: int, holddown: float
) -> ResilienceConfig:
    """The config for one policy row: ``tries`` == 0 keeps the baseline."""
    if tries <= 0:
        return base.with_label(f"{base.label}+noretry")
    policy = RetryPolicy(
        max_tries=tries,
        holddown=holddown if holddown > 0.0 else None,
    )
    return base.with_retries(policy)


def run(spec: DegradationSpec) -> ResultTable:
    """Registry entry point: sweep intensity × retry policy.

    Raises:
        ValueError: when either sweep axis is empty, or an intensity
            falls outside [0, 1].
    """
    if not spec.intensities:
        raise ValueError("need at least one attack intensity")
    if not spec.retry_tries:
        raise ValueError("need at least one retry-tries value")
    for intensity in spec.intensities:
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(
                f"attack intensity must be in [0, 1], got {intensity}"
            )
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    base = parse_scheme(spec.scheme)
    faults = FaultSpec(background_loss=spec.loss) if spec.loss > 0.0 else None
    configs = [
        _policy_config(base, tries, spec.holddown)
        for tries in spec.retry_tries
    ]
    pairs = [
        (config.label, ReplaySpec.for_scenario(
            scenario,
            spec.trace_name,
            config,
            attack=AttackSpec(
                start=scenario.attack_start,
                duration=spec.attack_hours * HOUR,
                intensity=intensity,
            ),
            faults=faults,
        ))
        for config in configs
        for intensity in spec.intensities
    ]

    def knee_text(row: Sequence[ReplayMetrics]) -> str:
        value = knee(row, spec.intensities, spec.knee_threshold)
        return "-" if value is None else f"{value:g}"

    return ResultTable(
        f"SR failure rate vs attack intensity ({spec.scheme}; "
        f"knee = first intensity > {spec.knee_threshold * 100:g}%)",
        ("Policy",),
        grid_columns(
            (f"i={intensity:g}" for intensity in spec.intensities),
            lambda record: f"{record.sr_attack_failure_rate * 100:.2f}%",
        ) + (("knee", knee_text),),
        run_rows(pairs, grouped=True),
    )

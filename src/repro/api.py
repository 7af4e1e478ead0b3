"""Stable programmatic facade for the reproduction library.

Importing from ``repro.api`` is the supported way to drive replays and
experiments from code; everything listed in ``__all__`` keeps working
across internal refactors.  The deeper module paths
(``repro.experiments.harness`` and friends) remain importable but may
move between releases.

Typical use::

    from repro.api import EXPERIMENTS, ObservationSpec, ReplaySpec, run_replays

    record, = run_replays([
        ReplaySpec.for_scenario(
            scenario, "TRC1", config,
            observe=ObservationSpec(events_path="events.jsonl"),
        )
    ])
    result = EXPERIMENTS["latency"].run()

``Clock`` is the timer API the resolution core schedules on; a replay's
``SimulationEngine`` and ``WallClock`` (``repro serve``) implement it.
"""

from __future__ import annotations

from repro.core.clock import Clock
from repro.core.config import ResilienceConfig, RetryPolicy
from repro.core.schemes import parse_scheme, scheme_syntax
from repro.experiments import EXPERIMENTS
from repro.experiments.harness import AttackSpec, ReplayResult, run_replay
from repro.experiments.parallel import (
    ReplayExecutionError,
    ReplaySpec,
    run_replays,
    run_rows,
)
from repro.experiments.registry import CommandDef, resolve_scale
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.table import ResultTable
from repro.obs import (
    Event,
    EventBus,
    EventKind,
    JsonlSink,
    ObservationContext,
    ObservationSpec,
    render_prometheus,
)
from repro.serve import ServeSpec, serve
from repro.serve.clock import WallClock
from repro.simulation.adversary import (
    AdversarySpec,
    NxnsAttackSpec,
    PoisonAttackSpec,
)
from repro.simulation.faults import FaultInjector, FaultSpec
from repro.simulation.metrics import ReplayMetrics
from repro.validation import (
    DifferentialCache,
    DivergenceError,
    InvariantViolation,
    OracleCache,
    ValidationError,
    check_cache_invariants,
    check_renewal_invariants,
    run_fuzz,
)

__all__ = [
    "AdversarySpec",
    "AttackSpec",
    "Clock",
    "CommandDef",
    "DifferentialCache",
    "DivergenceError",
    "EXPERIMENTS",
    "Event",
    "EventBus",
    "EventKind",
    "FaultInjector",
    "FaultSpec",
    "InvariantViolation",
    "JsonlSink",
    "NxnsAttackSpec",
    "ObservationContext",
    "ObservationSpec",
    "OracleCache",
    "PoisonAttackSpec",
    "ReplayExecutionError",
    "ReplayMetrics",
    "ReplayResult",
    "ReplaySpec",
    "ResilienceConfig",
    "ResultTable",
    "RetryPolicy",
    "Scale",
    "Scenario",
    "ServeSpec",
    "ValidationError",
    "WallClock",
    "check_cache_invariants",
    "check_renewal_invariants",
    "make_scenario",
    "parse_scheme",
    "render_prometheus",
    "resolve_scale",
    "run_fuzz",
    "run_replay",
    "run_replays",
    "run_rows",
    "scheme_syntax",
    "serve",
]

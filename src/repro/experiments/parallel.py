"""Parallel trace replay: fan independent replays over worker processes.

Every figure/table is a sweep of independent :func:`~repro.experiments.
harness.run_replay` calls (schemes × traces × attack durations × seeds;
a fleet's members are independent replays too, summed afterwards).
:func:`run_replays` is the batch API those sweeps go through: it takes
declarative :class:`ReplaySpec` descriptions and executes them either
in-process (``workers=1``, the default) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Three design rules keep this correct:

* **Specs, not objects, cross the boundary.**  A spec carries only
  ``(scale, scenario seed, trace name, config, attack, seed)`` — the
  lightweight key :func:`~repro.experiments.scenarios.make_scenario`
  memoises per process.  A forked worker finds whatever the parent had
  already built; otherwise it builds the scenario on first use and
  reuses it for the rest of the call.  The multi-MB ``BuiltHierarchy``
  is never pickled.
* **Records, not servers, come back.**  A replay's
  :class:`CachingServer`/engine graph is full of closures and timers;
  workers return only the :class:`~repro.simulation.metrics.ReplayMetrics`
  the resolver filled (failure counts, the attack window, traffic, gap
  and memory samples), which is plain data and pickles as it is.
* **Determinism is untouched.**  A replay's outcome depends only on its
  spec; the serial and parallel paths run the identical code, so a sweep
  produces bitwise-identical numbers at any worker count (covered by
  tests/experiments/test_parallel.py).

``REPRO_WORKERS`` selects the default worker count; ``workers=1`` (or an
unset variable) preserves the original fully-serial behaviour.  A
parallel call creates its own pool and shuts it down before returning,
so no worker outlives the call.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.obs.spec import ObservationSpec
from repro.simulation.adversary import AdversarySpec
from repro.simulation.faults import FaultSpec
from repro.simulation.metrics import ReplayMetrics

__all__ = [
    "ReplayExecutionError",
    "ReplaySpec",
    "WORKERS_ENV_VAR",
    "default_worker_count",
    "run_replays",
    "run_rows",
]

#: Environment variable selecting the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class ReplayExecutionError(RuntimeError):
    """A worker process died or exceeded the per-replay timeout."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySpec:
    """A declarative, picklable description of one replay.

    Identifies the scenario by ``(scale, scenario_seed)`` — the
    lightweight key :func:`make_scenario` memoises on — instead of
    carrying the built hierarchy.
    """

    # Crosses the worker process boundary: REP004 keeps Callable fields
    # and lambdas out, and tests/experiments/test_parallel.py round-trips
    # a spec with every optional part set.

    scale: Scale
    scenario_seed: int
    trace_name: str
    config: ResilienceConfig
    attack: AttackSpec | None = None
    seed: int = 0
    track_gaps: bool = False
    memory_sample_interval: float | None = None
    observe: ObservationSpec | None = None
    """Optional observability setup.  Executed inside the worker, so
    per-spec output paths work at any worker count (each worker writes
    its own files; the event stream stays deterministic because it is
    derived from the replay's virtual clock only)."""

    faults: FaultSpec | None = None
    """Optional fault-injection setup (DESIGN.md §11).  Like ``observe``
    it is a frozen description: each worker builds its own injector, and
    the hash-keyed draws make the outcome independent of worker count."""

    adversary: AdversarySpec | None = None
    """Optional adversary model (DESIGN.md §16): NXNS amplification
    and cache poisoning.  Frozen like ``faults``; each
    worker builds its own live adversary with its own ordinal counters,
    so adversarial replays stay byte-identical at any worker count."""

    validation: bool = False
    """Shadow the replay's cache with the naive oracle (DESIGN.md §12).
    Results are identical when the check passes; the worker raises a
    DivergenceError / InvariantViolation otherwise."""

    @classmethod
    def for_scenario(
        cls,
        scenario: Scenario,
        trace_name: str,
        config: ResilienceConfig,
        **options: Any,
    ) -> "ReplaySpec":
        """A spec that replays ``trace_name`` of an existing scenario;
        ``options`` set the optional fields above by name."""
        return cls(scenario.scale, scenario.seed, trace_name, config,
                   **options)

    def describe(self) -> str:
        return (
            f"{self.trace_name}/{self.config.label}"
            f" (scale={self.scale.value}, seed={self.seed})"
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def default_worker_count() -> int:
    """The worker count named by $REPRO_WORKERS (default 1 = serial).

    Raises:
        ValueError: when the variable is set but not a positive integer.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
        ) from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


def _execute_spec(spec: ReplaySpec) -> ReplayMetrics:
    """Run one spec in this process and return its record."""
    scenario = make_scenario(spec.scale, spec.scenario_seed)
    return run_replay(
        scenario.built,
        scenario.trace(spec.trace_name),
        spec.config,
        attack=spec.attack,
        track_gaps=spec.track_gaps,
        memory_sample_interval=spec.memory_sample_interval,
        seed=spec.seed,
        observe=spec.observe,
        faults=spec.faults,
        adversary=spec.adversary,
        validation=spec.validation,
    ).metrics


def run_replays(
    specs: Iterable[ReplaySpec],
    workers: int | None = None,
) -> list[ReplayMetrics]:
    """Execute every spec; results come back in spec order.

    Args:
        specs: replay specs, independent of each other.
        workers: process count.  None reads ``$REPRO_WORKERS`` (default
            1); 1 runs everything in-process with no executor involved.

    Raises:
        ReplayExecutionError: when a worker process dies (e.g. OOM-kill).
            Worker exceptions from the replay itself propagate unchanged.
    """
    spec_list = list(specs)
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(spec_list) <= 1:
        return [_execute_spec(spec) for spec in spec_list]

    # Under fork every worker starts up front, so never ask for more
    # processes than there are specs.
    pool = ProcessPoolExecutor(max_workers=min(workers, len(spec_list)))
    try:
        futures: list[Future] = [
            pool.submit(_execute_spec, spec) for spec in spec_list
        ]
        results = []
        for spec, future in zip(spec_list, futures):
            try:
                results.append(future.result())
            except BrokenExecutor as error:
                raise ReplayExecutionError(
                    f"a worker process died while running "
                    f"{spec.describe()} (killed or out of memory); "
                    f"rerun with workers=1 to reproduce in-process"
                ) from error
    except BaseException:
        # A failed sweep returns at once; queued replays are dropped.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return results


def run_rows(
    pairs: Iterable[tuple[Any, ReplaySpec]],
    grouped: bool = False,
) -> dict[Any, Any]:
    """Run every ``(row key, spec)`` pair in one batch, keyed by row.

    A key holds its spec's record; with ``grouped`` it holds the tuple
    of every record filed under it, in spec order (one per column of a
    grid row, one per seed of a multi-seed row).  This is the runner
    every experiment's table goes through.
    """
    pair_list = list(pairs)
    records = run_replays([spec for _, spec in pair_list])
    rows: dict[Any, Any] = {}
    for (key, _), record in zip(pair_list, records):
        rows[key] = (*rows.get(key, ()), record) if grouped else record
    return rows

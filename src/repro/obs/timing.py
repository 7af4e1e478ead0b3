"""Phase timers: per-stage wall/CPU accounting for experiment runs.

This is the one corner of the tree that intentionally reads the host
clock — the point *is* to measure real elapsed time, so the REP001
wall-clock rule is suppressed line-by-line.  Timings never feed back
into simulation state; they are reporting-only and therefore cannot
perturb determinism.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class PhaseStats:
    """Accumulated cost of one named stage."""

    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    count: int = 0

    def add(self, wall: float, cpu: float) -> None:
        self.wall_seconds += wall
        self.cpu_seconds += cpu
        self.count += 1


@dataclass
class StageTimings:
    """Named wall/CPU timers shared across an experiment run.

    One instance threads through ``run_replay``; each
    ``with timings.stage("replay"):`` block accumulates into the stage's
    :class:`PhaseStats`, so repeated stages sum naturally.
    """

    _stats: dict[str, PhaseStats] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        wall0 = time.perf_counter()  # repro: ignore[REP001]
        cpu0 = time.process_time()  # repro: ignore[REP001]
        try:
            yield
        finally:
            wall1 = time.perf_counter()  # repro: ignore[REP001]
            cpu1 = time.process_time()  # repro: ignore[REP001]
            self.add(name, wall1 - wall0, cpu1 - cpu0)

    def add(self, name: str, wall: float, cpu: float) -> None:
        stats = self._stats.get(name)
        if stats is None:
            stats = PhaseStats()
            self._stats[name] = stats
        stats.add(wall, cpu)

    def stats(self, name: str) -> PhaseStats:
        """The accumulated stats for ``name`` (zeros when never timed)."""
        return self._stats.get(name, PhaseStats())

    def stage_names(self) -> tuple[str, ...]:
        """Stages seen so far, in first-use order."""
        return tuple(self._stats)

    def render(self) -> str:
        """A small human-readable table (used by ``--timings``)."""
        lines = [f"{'stage':<12} {'wall (s)':>10} {'cpu (s)':>10} {'count':>6}"]
        for name in self._stats:
            stats = self._stats[name]
            lines.append(
                f"{name:<12} {stats.wall_seconds:>10.3f}"
                f" {stats.cpu_seconds:>10.3f} {stats.count:>6d}"
            )
        return "\n".join(lines)


@contextmanager
def maybe_stage(timings: "StageTimings | None", name: str) -> Iterator[None]:
    """``timings.stage(name)`` when timings exist, else a no-op block."""
    if timings is None:
        yield
    else:
        with timings.stage(name):
            yield

"""Declarative observation setup: what to record and where to put it.

:class:`ObservationSpec` is a frozen, picklable description — it rides
inside :class:`repro.experiments.parallel.ReplaySpec`, so a worker
process can build its own bus and sinks locally and write its own
output files.  :class:`ObservationContext` is the live counterpart a
single replay wires into the simulator.  It builds only what the spec
names: a metrics-only spec leaves the bus quiet, because the dump is
rendered from the bus's own tally at :meth:`ObservationContext.finish`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.obs.events import Event, EventBus
from repro.obs.sinks import JsonlSink, render_prometheus


@dataclass(frozen=True)
class ObservationSpec:
    """Which observers to attach to a replay.

    The default spec (all fields falsy) still builds a live bus — use
    ``None`` for "no observation at all" at the ``run_replay`` surface.
    """

    events_path: "str | None" = None
    """Write every event as canonical JSONL to this path."""

    metrics_path: "str | None" = None
    """Write a Prometheus-style text dump to this path at finish."""

    ring_size: int = 0
    """Keep the last this-many events in memory; 0 keeps none."""

    def build(self) -> "ObservationContext":
        """Construct the live bus + subscribers this spec describes."""
        return ObservationContext(self)


class ObservationContext:
    """A live event bus with the spec's subscribers attached."""

    def __init__(self, spec: ObservationSpec) -> None:
        self.spec = spec
        self.bus = EventBus()
        self.ring: "deque[Event] | None" = None
        self.jsonl: "JsonlSink | None" = None
        if spec.ring_size > 0:
            self.ring = deque(maxlen=spec.ring_size)
            self.bus.subscribe(self.ring.append)
        if spec.events_path is not None:
            self.jsonl = JsonlSink(spec.events_path).attach(self.bus)

    def finish(self) -> None:
        """Close the event log and write the metrics dump (idempotent;
        call after the replay)."""
        if self.jsonl is not None:
            self.jsonl.close()
        if self.spec.metrics_path is not None:
            Path(self.spec.metrics_path).write_text(
                render_prometheus(self.bus), encoding="utf-8"
            )

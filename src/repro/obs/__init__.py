"""Observability subsystem: event bus and its tally, sinks.

Zero-cost when disabled (no bus ⇒ the simulator runs its original
bytecode), deterministic when enabled (virtual-clock times + per-bus
sequence numbers ⇒ byte-identical JSONL for the same spec + seed).
See DESIGN.md §10.
"""

from repro.obs.events import Event, EventBus, EventHandler, EventKind
from repro.obs.sinks import JsonlSink, render_prometheus
from repro.obs.spec import ObservationContext, ObservationSpec

__all__ = [
    "Event",
    "EventBus",
    "EventHandler",
    "EventKind",
    "JsonlSink",
    "ObservationContext",
    "ObservationSpec",
    "render_prometheus",
]

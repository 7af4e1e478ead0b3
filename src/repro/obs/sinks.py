"""Pluggable metric sinks: where the event stream condenses into numbers.

Three sinks cover the use cases the experiments need:

* :class:`TimeSeriesSink` — per-kind counts in fixed-width virtual-time
  bins; the time-resolved generalisation of
  :class:`~repro.simulation.metrics.ReplayMetrics`' whole-run counters
  (what happened *during* the attack window, not just in total).
* :class:`JsonlSink` — streams every event as one canonical JSON line;
  byte-identical across runs of the same spec + seed.
* :class:`PrometheusSink` — whole-run counters rendered in the
  Prometheus text exposition format, for scraping-shaped tooling.

All sinks implement the tiny :class:`MetricSink` protocol (``on_event``
plus ``close``), so a replay wires any subset to one bus.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

from repro.obs.events import Event, EventBus, EventKind


@runtime_checkable
class MetricSink(Protocol):
    """What the observation context requires of a sink."""

    def on_event(self, event: Event) -> None: ...

    def close(self) -> None: ...


class TimeSeriesSink:
    """Per-kind event counts in fixed-width virtual-time bins."""

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0.0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self._bins: dict[EventKind, dict[int, int]] = {}

    def attach(self, bus: EventBus) -> "TimeSeriesSink":
        bus.subscribe(self.on_event)
        return self

    def on_event(self, event: Event) -> None:
        index = int(event.time // self.bin_width)
        per_kind = self._bins.get(event.kind)
        if per_kind is None:
            per_kind = {}
            self._bins[event.kind] = per_kind
        per_kind[index] = per_kind.get(index, 0) + 1

    def close(self) -> None:
        return None

    def series(self, kind: EventKind) -> list[tuple[float, int]]:
        """``(bin_start, count)`` pairs for ``kind``, in time order."""
        per_kind = self._bins.get(kind, {})
        return [
            (index * self.bin_width, per_kind[index])
            for index in sorted(per_kind)
        ]

    def total(self, kind: EventKind) -> int:
        """Whole-run count for ``kind``."""
        return sum(self._bins.get(kind, {}).values())

    def kinds(self) -> tuple[EventKind, ...]:
        """Kinds with at least one counted event, sorted by value."""
        return tuple(sorted(self._bins, key=lambda kind: kind.value))

    def as_dict(self) -> dict[str, list[tuple[float, int]]]:
        """Every series keyed by kind value (JSON-friendly)."""
        return {kind.value: self.series(kind) for kind in self.kinds()}


class JsonlSink:
    """Streams events as JSON lines to a file (or any text stream).

    The serialisation is canonical (sorted keys, fixed separators, floats
    via ``repr``), so the same spec + seed produces a byte-identical file
    at any worker count — the property the determinism gate asserts.
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        stream: "IO[str] | None" = None,
    ) -> None:
        if (path is None) == (stream is None):
            raise ValueError("pass exactly one of path or stream")
        self._path = Path(path) if path is not None else None
        self._stream = stream
        self._owns_stream = stream is None
        self.lines_written = 0

    def attach(self, bus: EventBus) -> "JsonlSink":
        bus.subscribe(self.on_event)
        return self

    def on_event(self, event: Event) -> None:
        stream = self._stream
        if stream is None:
            if self._path is None:
                raise ValueError("sink already closed")
            stream = self._path.open("w", encoding="utf-8", newline="\n")
            self._stream = stream
        stream.write(event.to_json())
        stream.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        """Flush and (for path-backed sinks) close the file.

        A path-backed sink that saw no events still writes an empty
        file, so "ran with --events" always leaves an artifact.
        """
        if self._stream is None and self._path is not None:
            self._path.write_text("", encoding="utf-8")
            return
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
                self._stream = None


class PrometheusSink:
    """Whole-run counters in the Prometheus text exposition format.

    The bus counts, the sink renders: :meth:`attach` subscribes nothing
    — it keeps the bus and :meth:`render` reads the bus's own per-kind
    totals (everything the bus has published, so attach before the
    first event, as every caller does).  A bus whose only consumer is
    this sink therefore never builds an :class:`Event`.  An unattached
    sink counts the events fed to :meth:`on_event` by hand.
    """

    #: What scrapers expect a text-format body to be served as; the
    #: ``repro serve`` metrics endpoint sends :meth:`render` under it.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._bus: EventBus | None = None
        self._counts: Counter[EventKind] = Counter()
        self._last_time = 0.0

    def attach(self, bus: EventBus) -> "PrometheusSink":
        self._bus = bus
        return self

    def on_event(self, event: Event) -> None:
        self._counts[event.kind] += 1
        if event.time > self._last_time:
            self._last_time = event.time

    def close(self) -> None:
        return None

    def render(self) -> str:
        """The full text dump (deterministically ordered)."""
        bus = self._bus
        if bus is None:
            counts: dict[EventKind, int] = self._counts
            last_time = self._last_time
        else:
            counts, last_time = bus.counts(), bus.last_time
        lines = [
            "# HELP repro_events_total Simulation events by kind.",
            "# TYPE repro_events_total counter",
        ]
        total = 0
        for kind in sorted(counts, key=lambda k: k.value):
            count = counts[kind]
            total += count
            lines.append(
                f'repro_events_total{{kind="{kind.value}"}} {count}'
            )
        lines.extend(
            [
                "# HELP repro_events_seen_total All simulation events.",
                "# TYPE repro_events_seen_total counter",
                f"repro_events_seen_total {total}",
                "# HELP repro_last_event_seconds Virtual time of the last event.",
                "# TYPE repro_last_event_seconds gauge",
                f"repro_last_event_seconds {last_time!r}",
            ]
        )
        return "\n".join(lines) + "\n"

    def write(self, path: "str | Path") -> None:
        Path(path).write_text(self.render(), encoding="utf-8")

"""Where the event stream leaves the process.

* :class:`JsonlSink` — streams every event as one canonical JSON line;
  byte-identical across runs of the same spec + seed.
* :func:`render_prometheus` — the bus's whole-run tally in the
  Prometheus text exposition format.  It subscribes nothing: it reads
  :meth:`~repro.obs.events.EventBus.counts` when asked.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from repro.obs.events import Event, EventBus

#: What scrapers expect a text-format body to be served as; the
#: ``repro serve`` metrics endpoint sends :func:`render_prometheus`
#: under it.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class JsonlSink:
    """Streams events as JSON lines to a file.

    The serialisation is canonical (sorted keys, fixed separators, floats
    via ``repr``), so the same spec + seed produces a byte-identical file
    at any worker count — the property the determinism gate asserts.
    """

    def __init__(self, path: "str | Path") -> None:
        self._path = Path(path)
        self._stream: "IO[str] | None" = None
        self._closed = False

    def attach(self, bus: EventBus) -> "JsonlSink":
        bus.subscribe(self.on_event)
        return self

    def on_event(self, event: Event) -> None:
        stream = self._stream
        if stream is None:
            if self._closed:
                raise ValueError("sink already closed")
            stream = self._path.open("w", encoding="utf-8", newline="\n")
            self._stream = stream
        stream.write(event.to_json())
        stream.write("\n")

    def close(self) -> None:
        """Close the file; later calls do nothing.

        A sink that saw no events still writes an empty file, so "ran
        with --events" always leaves an artifact.
        """
        if self._closed:
            return
        self._closed = True
        if self._stream is None:
            self._path.write_text("", encoding="utf-8")
            return
        self._stream.close()
        self._stream = None


def render_prometheus(bus: EventBus) -> str:
    """The bus's tally as a text dump (deterministically ordered)."""
    counts = bus.counts()
    lines = [
        "# HELP repro_events_total Simulation events by kind.",
        "# TYPE repro_events_total counter",
    ]
    for kind in sorted(counts, key=lambda k: k.value):
        lines.append(f'repro_events_total{{kind="{kind.value}"}} {counts[kind]}')
    lines.extend(
        [
            "# HELP repro_events_seen_total All simulation events.",
            "# TYPE repro_events_seen_total counter",
            f"repro_events_seen_total {bus.emitted}",
            "# HELP repro_last_event_seconds Virtual time of the last event.",
            "# TYPE repro_last_event_seconds gauge",
            f"repro_last_event_seconds {bus.last_time!r}",
        ]
    )
    return "\n".join(lines) + "\n"

"""Span tracing from outside the program.

The traced run wraps the public callables at each layer boundary with a
timing closure *before any object is built* (class attributes are
patched, so every instance created afterwards goes through the wrapper)
and keeps one row per call in memory: layer, start, end.  Spans of one
thread nest, so the span that caused each one and the stub query it
belongs to are worked out from the nesting afterwards instead of being
tracked on every call — the wrapper has to stay cheap next to a 2 µs
cache hit.  Nothing under ``src/`` knows about any of it;
:meth:`SpanTracer.uninstall` restores every attribute.

A layer's *self time* is its span's duration minus the part its child
spans cover.  The wrapper itself costs time on both sides of the clock
reads, so :meth:`SpanTracer.calibrate` measures that cost on a no-op and
:meth:`SpanTracer.slice_table` subtracts it: ``inner`` (charged inside
the span) from each span's own time, ``outer`` (charged to whoever
called it) once per child.  Without that correction the layers would
sum to the *traced* wall time, not to the end-to-end figure.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

@dataclass(frozen=True)
class Spans:
    """The finished span log, one entry per span, in order of completion."""

    layer: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    """Index of the enclosing span, -1 for a root."""
    query: np.ndarray
    """Ordinal of the stub query the span ran under, -1 outside any."""


class SpanTracer:
    """An in-memory span log fed by timing wrappers."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        """One wrapper's cost inside / outside its span, at reference speed."""
        # layer, start, end per span, flat.  A packed array and not a list:
        # the list was faster on a no-op (0.32 vs 0.62 us per span) but kept
        # every timestamp alive as an object, and streaming 90 bytes per
        # span through the cache cost the *replay* 1.0 us per span in situ.
        self._log = array("q")
        self._query_layers: set[int] = set()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def span(
        self, func: Callable[..., Any], layer: str, opens_query: bool = False
    ) -> Callable[..., Any]:
        """``func`` wrapped so every call records one span under ``layer``.

        ``opens_query`` marks the callable that serves one stub query:
        everything that runs under one of its spans belongs to that query.
        """
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        if opens_query:
            self._query_layers.add(layer_id)
        record = self._log.append
        now = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = now()
            try:
                return func(*args, **kwargs)
            finally:
                end = now()
                record(layer_id)
                record(start)
                record(end)

        return traced

    def wrap(
        self, owner: Any, attr: str, layer: str, opens_query: bool = False
    ) -> None:
        """Replace ``owner.attr`` (a class or a module) with its traced form."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(original, layer, opens_query))

    def wrap_scheduled(
        self, owner: Any, attr: str, layer_of: Callable[[Any], str]
    ) -> None:
        """Trace the *callbacks* handed to a ``schedule(when, action)``.

        Timer bodies are closures the program builds privately; the only
        public place they pass through is the scheduling call, so that
        is where each one is wrapped.
        """
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        span = self.span

        def schedule(engine: Any, when: float, action: Any) -> Any:
            return original(engine, when, span(action, layer_of(action)))

        setattr(owner, attr, schedule)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- calibration ----------------------------------------------------------

    def calibrate(self, calls: int = 50_000) -> None:
        """Measure what one wrapper costs, inside and outside its span.

        The probe is what the real wrappers sit on: a method with three
        arguments, reached through an instance (a bare function probe
        read 0.3 us low against ``DnsCache.get``).  Runs on throwaway
        tracers so the real log stays clean, and keeps the *fastest* of
        several batches, the cost with the box at its best: that is the
        reference speed the spans are scaled to before it is subtracted.
        """

        class Probe:
            def __init__(self) -> None:
                self.table: dict[int, int] = {}

            def touch(self, key: int, kind: int, at: float) -> int | None:
                return self.table.get(key)

        probe = Probe()
        now = time.perf_counter_ns

        def batch() -> float:
            begin = now()
            for key in range(calls):
                probe.touch(key, 1, 0.0)
            return (now() - begin) / calls

        inner: list[float] = []
        total: list[float] = []
        for _ in range(7):
            bare = batch()
            tracer = SpanTracer()
            tracer.wrap(Probe, "touch", "probe")
            try:
                wrapped = batch()
            finally:
                tracer.uninstall()
            inner.append(float(np.median(tracer.timings_of("probe")[1])) - bare)
            total.append(wrapped - bare)
        self.inner_ns = max(0.0, min(inner))
        self.outer_ns = max(0.0, min(total) - self.inner_ns)

    # -- analysis -------------------------------------------------------------

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.frombuffer(self._log, dtype=np.int64).reshape(-1, 3)
        return rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy()

    def timings_of(self, layer: str) -> tuple[np.ndarray, np.ndarray]:
        """(start, duration) in ns of one layer's spans, in order of completion."""
        layers, start, end = self._rows()
        mine = layers == self.layers.index(layer)
        return start[mine], (end - start)[mine]

    def spans(self) -> Spans:
        """The log so far, with each span's parent and stub query filled in."""
        layer, start, end = self._rows()
        count = len(layer)
        # Rows were written as spans *ended*, so children precede their
        # parent: a span adopts every earlier, still unclaimed span that
        # started no earlier than it did.
        parent = [-1] * count
        open_spans: list[int] = []
        starts = start.tolist()
        for index in range(count):
            began = starts[index]
            while open_spans and starts[open_spans[-1]] >= began:
                parent[open_spans.pop()] = index
            open_spans.append(index)
        # A parent sits after its children, so walking backwards meets it first.
        query = [-1] * count
        ordinal = int(np.isin(layer, list(self._query_layers)).sum())
        is_query = self._query_layers.__contains__
        layers = layer.tolist()
        for index in range(count - 1, -1, -1):
            if is_query(layers[index]):
                ordinal -= 1
                query[index] = ordinal
            elif parent[index] >= 0:
                query[index] = query[parent[index]]
        return Spans(
            layer, start, end,
            np.array(parent, dtype=np.int64), np.array(query, dtype=np.int64),
        )

    @staticmethod
    def self_times(spans: Spans) -> tuple[np.ndarray, np.ndarray]:
        """Per span: (raw self time in ns, number of direct children)."""
        duration = (spans.end - spans.start).astype(np.float64)
        has_parent = spans.parent >= 0
        count = len(duration)
        child_time = np.bincount(
            spans.parent[has_parent], weights=duration[has_parent], minlength=count
        )
        children = np.bincount(spans.parent[has_parent], minlength=count)
        return duration - child_time, children

    def slice_table(
        self, spans: Spans, starts: np.ndarray, ends: np.ndarray, speeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self time per (slice, layer), at reference speed.

        Slice ``k`` runs from ``starts[k]`` to ``ends[k]`` (clock readings
        taken outside every span) at box speed ``speeds[k]``; spans that
        begin in no slice are left out.  Self times are scaled to
        reference speed and have the wrapper's cost taken off.  Both
        results have one row per slice and one column per layer, plus a
        last column for the part of each slice spent outside every span
        (the caller's own frame).
        """
        slices, width = len(starts), len(self.layers) + 1
        raw_self, children = self.self_times(spans)
        at = np.searchsorted(starts, spans.start, side="right") - 1
        inside = (at >= 0) & (spans.start < ends[np.maximum(at, 0)])
        at = at[inside]
        own = (
            raw_self[inside] * speeds[at]
            - self.inner_ns - children[inside] * self.outer_ns
        )
        cell = at * width + spans.layer[inside]
        calls = np.bincount(cell, minlength=slices * width).reshape(slices, width)
        self_ns = np.bincount(cell, weights=own, minlength=slices * width).reshape(
            slices, width)
        top = spans.parent[inside] < 0
        covered = np.bincount(
            at[top],
            weights=(spans.end - spans.start)[inside][top] * speeds[at[top]]
            + self.outer_ns,
            minlength=slices,
        )
        self_ns[:, -1] = (ends - starts) * speeds - covered
        return calls, self_ns

    def write(self, path: str, spans: Spans) -> None:
        """Write the span log (compressed numpy columns plus layer names)."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            overhead_ns=np.array([self.inner_ns, self.outer_ns]),
            layer=spans.layer, start=spans.start, end=spans.end,
            parent=spans.parent, query=spans.query,
        )

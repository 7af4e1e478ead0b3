"""A trace held as columns: the view's sequence contract, its readers and
its memory.

The perf ledger reads a trace only through ``Trace.queries``: it wraps a
trace with ``Trace(t.name, t.duration, t.queries)``, replays it as
``yield from queries[a:b]`` over slices, and takes warm names as
``[q.qname for q in trace.queries[:n]]``.  These tests hold the view to
each of those uses, and the numpy readers to what the old per-row loops
computed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale, make_scenario
from repro.workload.generator import ROW_CHUNK, TraceGenerator, WorkloadConfig
from repro.workload.stats import compute_statistics
from repro.workload.trace import (
    Trace,
    TraceQueries,
    TraceQuery,
    trace_from_lines,
    trace_to_text,
)

ZONES = [Name.from_text(f"z{index}.columns.test") for index in range(30)]
CATALOG = {
    zone: [zone.child(label) for label in ("www", "mail", "ftp", "ns")[: 1 + index % 4]]
    for index, zone in enumerate(ZONES)
}


def generated(queries_per_day=3000.0, days=1.0, seed=5):
    config = WorkloadConfig(
        duration_days=days, queries_per_day=queries_per_day, num_clients=40,
        qtype_mix=((RRType.A, 0.8), (RRType.AAAA, 0.15), (RRType.MX, 0.05)),
    )
    return TraceGenerator(CATALOG, config, seed=seed).generate("C")


def assert_rows(rows):
    for row in rows:
        assert type(row) is TraceQuery
        assert type(row.time) is float and type(row.client_id) is int
        assert isinstance(row.qname, Name) and isinstance(row.rrtype, RRType)


class TestView:
    def test_wrapping_a_view_keeps_its_columns(self):
        trace = generated()
        wrapped = Trace(trace.name, trace.duration, trace.queries)
        assert wrapped.queries is trace.queries
        assert (wrapped.name, wrapped.duration, len(wrapped)) == (
            trace.name, trace.duration, len(trace)
        )
        assert list(wrapped) == list(trace)

    def test_slices_are_views_and_yield_rows(self):
        trace = generated()
        rows = list(trace.queries)
        assert_rows(rows)
        outer = trace.queries[100:900]
        inner = outer[50:60]
        assert isinstance(inner, TraceQueries) and len(inner) == 10
        assert np.shares_memory(inner.times, trace.queries.times)
        assert list(inner) == rows[150:160]
        assert [query.qname for query in inner] == [row.qname for row in rows[150:160]]
        assert_rows(inner)
        assert list(trace.queries[::7]) == rows[::7]
        assert list(trace.queries[-5:]) == rows[-5:]

    def test_int_and_negative_indexing(self):
        trace = generated()
        rows = list(trace.queries)
        for index in (0, 1, len(rows) - 1, -1, -len(rows)):
            assert trace.queries[index] == rows[index]
        assert_rows([trace.queries[-1], trace.queries[0]])
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                trace.queries[index]

    def test_iteration_crosses_chunk_boundaries_in_order(self):
        trace = generated(queries_per_day=2.5 * ROW_CHUNK)
        assert len(trace) > 2 * ROW_CHUNK
        rows = list(trace)
        assert len(rows) == len(trace)
        assert [row.time for row in rows] == trace.queries.times.tolist()
        assert rows[ROW_CHUNK] == trace.queries[ROW_CHUNK]

    def test_rows_in_and_rows_out(self):
        rows = [
            TraceQuery(1.5, 7, Name.from_text("a.z.test"), RRType.MX),
            TraceQuery(2.0, 2**40, Name.from_text("b.z.test")),
            TraceQuery(2.0, 7, Name.from_text("a.z.test"), RRType.A),
        ]
        trace = Trace("R", 10.0, rows)
        assert trace.queries == rows
        assert list(trace) == rows
        assert len(trace.queries.names) == 2 and len(trace.queries.types) == 2
        assert Trace("E", 1.0).queries == [] and list(Trace("E", 1.0)) == []


class TestReaders:
    """The numpy reductions against the per-row loops they replaced."""

    def test_counts_and_span(self):
        trace = generated()
        rows = list(trace)
        assert trace.client_count() == len({row.client_id for row in rows})
        assert trace.distinct_names() == len({row.qname for row in rows})
        assert trace.time_span() == (rows[0].time, rows[-1].time)
        assert type(trace.time_span()[0]) is float

    @pytest.mark.parametrize("start, end", [
        (0.0, 86400.0), (3600.0, 7200.0), (40000.0, 40000.0), (9e9, 9e10),
    ])
    def test_slice_window(self, start, end):
        trace = generated()
        window = trace.slice_window(start, end)
        assert list(window) == [row for row in trace if start <= row.time < end]

    def test_slice_window_ties_stay_half_open(self):
        trace = trace_from_lines(
            [f"{time} 0 a.z.test. A" for time in (1.0, 2.0, 2.0, 3.0, 3.0)]
        )
        assert [row.time for row in trace.slice_window(2.0, 3.0)] == [2.0, 2.0]

    def test_validate_ordering_names_the_first_step_back(self):
        rows = [TraceQuery(t, 0, Name.from_text("a.z.test")) for t in (1.0, 2.5, 2.0, 1.0)]
        with pytest.raises(ValueError, match=r"at t=2\.0$"):
            Trace("U", 10.0, rows).validate_ordering()
        negative = [TraceQuery(-1.0, 0, Name.from_text("a.z.test"))]
        with pytest.raises(ValueError, match="not time-ordered"):
            Trace("N", 10.0, negative).validate_ordering()

    @pytest.mark.parametrize("with_tree", [False, True])
    def test_statistics_match_the_row_loop(self, with_tree):
        if with_tree:
            scenario = make_scenario(Scale.TINY, seed=7)
            trace, tree = scenario.trace("TRC2"), scenario.built.tree
        else:
            trace, tree = generated(), None
        stats = compute_statistics(trace, tree=tree)
        rows = list(trace)
        zones = {
            tree.enclosing_zone(row.qname).name if tree else row.qname.parent()
            for row in rows
        }
        assert (stats.requests_in, stats.clients, stats.distinct_names,
                stats.distinct_zones) == (
            len(rows), len({row.client_id for row in rows}),
            len({row.qname for row in rows}), len(zones),
        )


class TestText:
    def test_write_read_write_is_byte_identical(self):
        trace = generated(queries_per_day=5000.0)
        text = trace_to_text(trace)
        assert "np." not in text
        again = trace_from_lines(text.splitlines())
        assert trace_to_text(again) == text
        assert again.queries == list(trace)


class TestMemory:
    def test_a_generated_trace_holds_no_row_objects(self):
        """Columns cost 8 B a query and a few narrow ints; a stored
        TraceQuery row ~107 B."""
        config = WorkloadConfig(
            duration_days=1.0, queries_per_day=200_000.0, num_clients=40
        )
        generator = TraceGenerator(CATALOG, config, seed=5)
        generator.generate("warm", stream=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generator.generate("C")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) > 150_000
        assert held / len(trace) <= 40, held / len(trace)

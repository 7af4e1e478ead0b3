"""Tests for trace representation and the text format."""

import pytest
from hypothesis import given, strategies as st

from repro.core.schemes import parse_scheme
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, make_scenario
from repro.workload.trace import (
    Trace,
    TraceQuery,
    read_trace,
    trace_from_lines,
    trace_to_text,
    write_trace,
)


def make_trace(times=(1.0, 2.0, 3.0)):
    queries = [
        TraceQuery(time, client_id=index % 2,
                   qname=Name.from_text(f"h{index}.z.test"))
        for index, time in enumerate(times)
    ]
    return Trace(name="T", duration=10.0, queries=queries)


class TestTrace:
    def test_counts(self):
        trace = make_trace()
        assert len(trace) == 3
        assert trace.client_count() == 2
        assert trace.distinct_names() == 3

    def test_time_span(self):
        assert make_trace().time_span() == (1.0, 3.0)
        assert Trace("e", 1.0).time_span() == (0.0, 0.0)

    def test_validate_ordering_accepts_sorted(self):
        make_trace().validate_ordering()

    def test_validate_ordering_rejects_unsorted(self):
        trace = make_trace(times=(3.0, 1.0))
        with pytest.raises(ValueError):
            trace.validate_ordering()

    def test_validate_ordering_rejects_beyond_duration(self):
        trace = make_trace(times=(1.0, 11.0))
        with pytest.raises(ValueError):
            trace.validate_ordering()

    def test_slice_window_half_open(self):
        trace = make_trace(times=(1.0, 2.0, 3.0))
        window = trace.slice_window(2.0, 3.0)
        assert [query.time for query in window] == [2.0]

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            Trace("bad", 0.0)


class TestTextFormat:
    def test_roundtrip_via_file(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.name == "T"
        assert loaded.duration == 10.0
        assert len(loaded) == len(trace)
        assert loaded.queries[0].qname == trace.queries[0].qname

    def test_written_trace_replays_like_the_one_in_memory(self, tmp_path):
        """Times survive the file exactly, so the replay's outcome does too."""
        scenario = make_scenario(Scale.TINY, seed=7)
        trace = scenario.trace("TRC1")
        path = tmp_path / "trc1.txt"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.queries == trace.queries
        config = parse_scheme("a-lfu:5")
        in_memory = run_replay(scenario.built, trace, config, attack=AttackSpec())
        from_file = run_replay(scenario.built, loaded, config, attack=AttackSpec())
        assert from_file.metrics == in_memory.metrics

    def test_qtype_preserved(self, tmp_path):
        trace = Trace("T", 10.0, [
            TraceQuery(1.0, 0, Name.from_text("a.z.test"), RRType.MX)
        ])
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        assert read_trace(path).queries[0].rrtype is RRType.MX

    def test_header_optional(self):
        trace = trace_from_lines(["1.0 5 www.x.test. A"], default_name="fallback")
        assert trace.name == "fallback"
        assert len(trace) == 1

    def test_qtype_defaults_to_a(self):
        trace = trace_from_lines(["1.0 5 www.x.test."])
        assert trace.queries[0].rrtype is RRType.A

    def test_blank_lines_and_comments_skipped(self):
        trace = trace_from_lines(["", "# comment", "1.0 0 a.test. A"])
        assert len(trace) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            trace_from_lines(["1.0 0"])

    def test_unsorted_file_rejected(self):
        with pytest.raises(ValueError):
            trace_from_lines(["2.0 0 a.test. A", "1.0 0 b.test. A"])

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["www.alpha.test", "mail.beta.test", "x.gamma.test"]),
            st.sampled_from([RRType.A, RRType.AAAA, RRType.MX]),
        ),
        max_size=30,
    ))
    def test_text_roundtrip_property(self, rows):
        rows.sort(key=lambda row: row[0])
        queries = [
            TraceQuery(time, client, Name.from_text(qname), rrtype)
            for time, client, qname, rrtype in rows
        ]
        trace = Trace("P", duration=200.0, queries=queries)
        loaded = trace_from_lines(trace_to_text(trace).splitlines())
        assert len(loaded) == len(trace)
        for original, parsed in zip(trace, loaded):
            assert parsed.qname == original.qname
            assert parsed.client_id == original.client_id
            assert parsed.rrtype == original.rrtype
            assert parsed.time == original.time

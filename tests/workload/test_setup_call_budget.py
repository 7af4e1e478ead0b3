"""Set-up's call budget, counted — no timing involved.

Trace generation and the hierarchy build make one object per row and per
record; in CPython their cost is dominated by the Python frames spent on
each.  These tests count ``call`` events under ``sys.setprofile`` so a
frame per row (a record with a Python ``__new__``/``__init__``, a helper
called per row) fails here instead of showing up as a slower set-up.
"""

import sys

from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.workload.generator import ROW_CHUNK, TraceGenerator, WorkloadConfig

ZONES = [Name.from_text(f"z{index}.budget.test") for index in range(20)]
CATALOG = {
    zone: [zone.child(label) for label in ("www", "mail", "ftp")[: 1 + index % 3]]
    for index, zone in enumerate(ZONES)
}


def _calls(function, *args):
    """Code objects of every Python-level call ``function(*args)`` makes,
    and what it returned."""
    seen = []

    def on_event(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)

    sys.setprofile(on_event)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return seen, result


def _generate(queries_per_day):
    config = WorkloadConfig(
        duration_days=1.0, queries_per_day=queries_per_day, num_clients=30
    )
    generator = TraceGenerator(CATALOG, config, seed=3)
    return _calls(generator.generate, "T")


class TestGenerateCallBudget:
    def test_rows_cost_no_frame_each(self):
        _generate(ROW_CHUNK // 8)  # warm the one-time caches (abc checks)
        one_chunk, small = _generate(ROW_CHUNK)
        three_chunks, large = _generate(3 * ROW_CHUNK)
        assert len(large) > 2 * ROW_CHUNK > len(small)
        assert len(three_chunks) == len(one_chunk), (
            len(three_chunks) - len(one_chunk)
        )


def _a(owner, ttl, address):
    return ResourceRecord(Name.from_text(owner), RRType.A, ttl, address)


class TestFromRecords:
    def test_a_single_record_is_the_set_as_it_stands(self):
        record = _a("host.budget.test", 300.0, "10.0.0.1")
        seen, rrset = _calls(RRset.from_records, [record])
        assert rrset.records[0] is record and len(rrset) == 1
        assert (rrset.name, rrset.rrtype, rrset.ttl) == (
            record.name, RRType.A, 300.0
        )
        # from_records, the dataclass __init__ and its __post_init__: no
        # sort key, no min, no re-stamped copy.
        assert len(seen) <= 3, [code.co_name for code in seen]

    def test_several_records_sort_by_rdata_text_at_the_minimum_ttl(self):
        records = [
            _a("lb.budget.test", 300.0, "10.0.0.9"),
            _a("lb.budget.test", 60.0, "10.0.0.10"),
            _a("lb.budget.test", 120.0, "10.0.0.100"),
        ]
        rrset = RRset.from_records(records)
        # Text order, not numeric: "10.0.0.10" < "10.0.0.100" < "10.0.0.9".
        assert rrset.data_values() == ("10.0.0.10", "10.0.0.100", "10.0.0.9")
        assert rrset.ttl == 60.0
        assert [record.ttl for record in rrset] == [60.0, 60.0, 60.0]
        assert rrset.records[0] is records[1]

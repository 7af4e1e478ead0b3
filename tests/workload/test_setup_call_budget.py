"""Set-up's call budget, counted — no timing involved.

Reading a trace makes one object per row, and the hierarchy build one
per record; in CPython their cost is dominated by the Python frames
spent on each.  These tests count ``call`` events under
``sys.setprofile`` so a frame per row (a record with a Python
``__new__``/``__init__``, a helper called per row) fails here instead
of showing up as a slower set-up or replay.
"""

import collections
import functools
import random
import sys

from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.hierarchy.builder import HierarchyConfig, build_hierarchy
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

    def test_reading_rows_costs_a_frame_per_chunk_not_per_row(self):
        """A trace's rows are made in C as they are read (``deque`` with
        ``maxlen=0`` drains an iterator without a frame of its own)."""
        drain = functools.partial(collections.deque, maxlen=0)
        _, trace = _generate(3 * ROW_CHUNK)
        assert len(trace) > 2 * ROW_CHUNK
        few, _ = _calls(drain, trace.queries[:100])
        for view in (trace.queries, trace.queries[10:-10]):
            seen, _ = _calls(drain, view)
            chunks = -(-len(view) // ROW_CHUNK)
            assert len(seen) - len(few) == chunks - 1, [c.co_name for c in seen]
            assert {code.co_name for code in seen} == {
                "__iter__", "__len__", "_chunk_rows"
            }


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


#: Python frames a catalog host costs a build: its name, its TTL draw
#: (``sample_data_ttl`` and the bucket's ``sample``), its address, its
#: record and its RRset (each an ``__init__`` and a ``__post_init__``), and
#: the zone filing its name.  The ``random`` module's own frames are not
#: counted: they differ between Python versions.
HOST_FRAME_BUDGET = 9


def _build_frames(hosts_per_zone):
    """Frames a build makes outside ``random``, and its catalog's host count.

    Every zone of this world is built the same way whatever the draws:
    one TLD, no providers, no third level, two servers a zone, and a
    fixed host count, so two sizes differ only in their hosts.
    """
    config = HierarchyConfig(
        num_tlds=1, num_slds=12, num_providers=0, third_level_fraction=0.0,
        root_server_count=2, tld_server_range=(2, 2), sld_server_range=(2, 2),
        hosts_per_zone_range=(hosts_per_zone, hosts_per_zone),
    )
    seen, built = _calls(build_hierarchy, config, 5)
    frames = [code for code in seen if code.co_filename != random.__file__]
    return frames, sum(len(hosts) for hosts in built.catalog.values())


class TestBuildCallBudget:
    def test_a_host_costs_its_objects_and_no_helper_frame(self):
        _build_frames(9)  # intern the names and warm the one-time caches
        few, few_hosts = _build_frames(3)
        many, many_hosts = _build_frames(9)
        extra_hosts = many_hosts - few_hosts
        assert extra_hosts == 12 * 6
        per_host, rest = divmod(len(many) - len(few), extra_hosts)
        assert rest == 0, (len(many) - len(few), extra_hosts)
        extra = collections.Counter(code.co_name for code in many)
        extra.subtract(code.co_name for code in few)
        assert per_host <= HOST_FRAME_BUDGET, +extra

"""The array-speed ``generate`` against the per-query loop it replaced.

The comparison is against ``reference_generator.reference_generate`` run
in the same process, not a stored hash: numpy does not promise that a
``Generator``'s stream stays the same across versions, and both sides
draw from whatever stream this numpy gives.
"""

import pytest

from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale, make_scenario
from repro.workload.generator import ROW_CHUNK, TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace, TraceQuery

from tests.workload.reference_generator import reference_generate


def make_catalog(host_counts):
    """One zone per entry of ``host_counts``, with that many hosts."""
    catalog = {}
    for index, count in enumerate(host_counts):
        zone = Name.from_text(f"z{index}.ref.test")
        catalog[zone] = [zone.child(f"h{host}") for host in range(count)]
    return catalog


UNIFORM = make_catalog([3] * 40)
MIXED = make_catalog([1, 2, 5, 12, 1, 3, 12, 7, 2, 1, 5, 9] * 4)


def config(**overrides):
    defaults = dict(duration_days=2.0, queries_per_day=1500, num_clients=20)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def assert_same_rows(got: Trace, want: Trace) -> None:
    assert (got.name, got.duration, len(got)) == (want.name, want.duration, len(want))
    for mine, theirs in zip(got.queries, want.queries):
        # No numpy scalar may leak into a row: metrics and JSON dumps
        # downstream expect plain Python numbers.
        assert type(mine) is TraceQuery
        assert type(mine.time) is float
        assert type(mine.client_id) is int
        assert mine.time.hex() == theirs.time.hex()
        assert mine.client_id == theirs.client_id
        assert mine.qname is theirs.qname
        assert mine.rrtype is theirs.rrtype


@pytest.mark.parametrize(
    "catalog, workload",
    [
        pytest.param(UNIFORM, config(), id="default-qtype-mix"),
        pytest.param(UNIFORM, config(qtype_mix=((RRType.A, 1.0),)), id="a-only"),
        pytest.param(UNIFORM, config(shared_interest_fraction=0.0), id="all-private"),
        pytest.param(UNIFORM, config(shared_interest_fraction=1.0), id="all-shared"),
        pytest.param(MIXED, config(), id="host-list-sizes-1-to-12"),
    ],
)
def test_rows_equal_the_per_query_loop(catalog, workload):
    generator = TraceGenerator(catalog, workload, seed=11)
    for stream in (0, 3):
        got = generator.generate("T", stream=stream)
        assert_same_rows(got, reference_generate(generator, "T", stream=stream))
        got.validate_ordering()


def test_rows_equal_on_a_built_hierarchy():
    scenario = make_scenario(Scale.TINY, seed=7)
    generator = TraceGenerator(
        scenario.built.catalog, scenario.parameters.workload, seed=scenario.seed
    )
    assert_same_rows(
        generator.generate("TRC1", stream=1),
        reference_generate(generator, "TRC1", stream=1),
    )


def test_rows_equal_across_a_chunk_boundary():
    """Every host-list size, and a row count that ends mid-chunk."""
    workload = config(duration_days=0.5, queries_per_day=2.6 * ROW_CHUNK)
    generator = TraceGenerator(MIXED, workload, seed=11)
    assert len(generator._host_cdfs) >= 4 and 1 in generator._host_cdfs
    got = generator.generate("T")
    assert len(got) > ROW_CHUNK and len(got) % ROW_CHUNK != 0
    assert_same_rows(got, reference_generate(generator, "T"))


def test_zero_queries():
    generator = TraceGenerator(MIXED, config(queries_per_day=0.0), seed=11)
    got = generator.generate("empty")
    assert len(got) == 0
    assert_same_rows(got, reference_generate(generator, "empty"))

"""Microbenchmarks of the simulator's hot paths.

Unlike the figure benches (one-shot experiment regeneration), these are
genuine repeated-timing microbenchmarks: cache operations, a full
resolution, and replay throughput — useful to keep the simulator fast
enough for PAPER-scale runs.
"""

import pytest

from repro.core.cache import DnsCache
from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network

from tests.helpers import build_mini_internet, name


@pytest.fixture
def warm_cache():
    cache = DnsCache()
    for index in range(500):
        rrset = RRset.from_records([
            ResourceRecord(Name.from_text(f"h{index}.z.test"), RRType.A,
                           3600.0, f"10.1.{index // 250}.{index % 250}")
        ])
        cache.put(rrset, Rank.AUTH_ANSWER, now=0.0)
    return cache


def bench_cache_get_hit(benchmark, warm_cache):
    owner = Name.from_text("h250.z.test")
    result = benchmark(warm_cache.get, owner, RRType.A, 100.0)
    assert result is not None


def bench_cache_put_refresh(benchmark, warm_cache):
    rrset = RRset.from_records([
        ResourceRecord(Name.from_text("h250.z.test"), RRType.A, 3600.0,
                       "10.1.1.0")
    ])
    benchmark(warm_cache.put, rrset, Rank.AUTH_ANSWER, 100.0, True)


def bench_best_zone_lookup(benchmark, warm_cache):
    ns = RRset.from_records([
        ResourceRecord(Name.from_text("z.test"), RRType.NS, 3600.0,
                       Name.from_text("ns1.z.test"))
    ])
    warm_cache.put(ns, Rank.AUTH_AUTHORITY, now=0.0)
    qname = Name.from_text("deep.very.h1.z.test")
    result = benchmark(warm_cache.best_zone_for, qname, 100.0)
    assert result == Name.from_text("z.test")


def bench_advance_to_idle(benchmark):
    """Engine clock advance with an empty queue — the replay's inner loop
    between trace queries is dominated by this call."""
    engine = SimulationEngine()
    times = iter(range(1, 50_000_000))

    def advance():
        engine.advance_to(float(next(times)))

    benchmark(advance)


def bench_ancestors_walk(benchmark):
    """Name.ancestors() on a deep name (cached per interned instance)."""
    qname = Name.from_text("www.deep.sub.zone.example.test")

    def walk():
        total = 0
        for ancestor in qname.ancestors():
            total += ancestor.depth()
        return total

    assert benchmark(walk) == 21


def bench_name_wire_length(benchmark):
    """wire_length() is called per outgoing message for byte accounting."""
    qname = Name.from_text("www.deep.sub.zone.example.test")
    assert benchmark(qname.wire_length) == 32


def bench_cold_resolution(benchmark):
    mini = build_mini_internet()

    def resolve_cold():
        server = CachingServer(
            root_hints=mini.tree.root_hints(),
            network=Network(mini.tree),
            clock=SimulationEngine(),
            config=ResilienceConfig.vanilla(),
            metrics=ReplayMetrics(),
        )
        return server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)

    result = benchmark(resolve_cold)
    assert not result.failed


def bench_warm_resolution(benchmark):
    mini = build_mini_internet()
    server = CachingServer(
        root_hints=mini.tree.root_hints(),
        network=Network(mini.tree),
        clock=SimulationEngine(),
        config=ResilienceConfig.vanilla(),
        metrics=ReplayMetrics(),
    )
    server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
    result = benchmark(
        server.handle_stub_query, name("www.example.test."), RRType.A, 1.0
    )
    assert not result.failed


def bench_replay_throughput(benchmark):
    """Queries/second through a full TINY replay (reported as time/run)."""
    from repro.experiments.harness import run_replay
    from repro.experiments.scenarios import Scale, make_scenario

    scenario = make_scenario(Scale.TINY)
    trace = scenario.trace("TRC1")

    def replay():
        return run_replay(scenario.built, trace, ResilienceConfig.refresh())

    result = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert result.metrics.sr_queries == len(trace)

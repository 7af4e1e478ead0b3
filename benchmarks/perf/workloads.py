"""The six workloads of the perf ledger and the code that measures them.

Everything here measures **from outside**: it times calls into public
functions (``build_hierarchy``, ``TraceGenerator.generate``,
``run_replay``) and drives a real ``python -m repro serve`` child over
its sockets.  No file under ``src/`` knows it is being measured.

One *run* is one call of :func:`run_workload` in a fresh process: it sets
up several times (``setup_s`` is their median), measures for the asked
number of seconds, checks the outputs, and returns a :class:`RunRecord`.
An untraced run yields the end-to-end metrics, a traced run the
per-layer ones; README.md has the tables and the reasons.

The box's speed does not hold still, so every duration is scaled to
*reference speed* by :class:`SpeedGauge` samples taken right beside it
(reference.py says why): a replay is timed in :data:`CHUNKS` slices with a
sample at every boundary, a server is loaded in :data:`WINDOW_S` windows
with a sample between them.

Inputs come from ``--seed``: it selects the trace *stream* (arrival
times, clients, per-query draws) and the shuffles.  The zone-popularity
permutation stays pinned at :data:`WORLD_SEED` together with the
hierarchy: with it free, the cold replay's hit ratio moved 0.29–0.33 and
its qps 30 % between seeds, which would drown any later comparison.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.cache import DnsCache
from repro.core.caching_server import CachingServer
from repro.core.renewal import RenewalManager
from repro.core.schemes import parse_scheme
from repro.dns.message import Question, Rcode
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.experiments import harness
from repro.experiments.harness import AttackSpec, ReplayResult
from repro.hierarchy.builder import BuiltHierarchy, HierarchyConfig, build_hierarchy
from repro.serve.wire import WireFormatError, decode_message, encode_query
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace, TraceQuery

from .driver import LoadResult, run_closed, run_open
from .reference import Sample, SpeedGauge, speed
from .trace import SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Seed of the hierarchy and of the zone-popularity permutation.
WORLD_SEED = 7

#: A pinned copy of ``Scale.SMALL``'s hierarchy.  The serve child builds
#: its own from ``--scale small``; if the two ever drift, the served
#: answers stop matching the reference and ``failed_share`` says so.
HIERARCHY = HierarchyConfig(num_tlds=40, num_slds=1_000, num_providers=8)

#: ``Scale.SMALL``'s week trace shape (the paper's TRC1..TRC5 layout).
WEEK = WorkloadConfig(duration_days=7.0, queries_per_day=9_000, num_clients=250)

#: A replay is timed in this many equal slices of the trace (see
#: :class:`ChunkTimedTrace`).
CHUNKS = 64

CLIENTS = 2
"""Closed-loop clients: with the server's two threads that fills the box."""

OPEN_RATE = 1000.0
"""The fixed offered rate (qps) the open-loop end-to-end numbers are read at:
about a sixth of what the warmed server sustains on this box."""

OPEN_LADDER = (500.0, 1000.0, 2000.0, 3000.0)
OPEN_P90_LIMIT_MS = 10.0

WARM_NAMES = 10_000
"""The warm workloads ask for the first this-many names of the week trace:
about 3300 distinct ones.  Not more, because past 4096 distinct answers the
front end's stale memo sweeps itself on every store and the workload would
measure that sweep (2.2k qps) instead of the hit path (6k qps)."""

COLD_HOSTS_PER_SECOND = 1_000
"""Distinct hosts a cold child is given per second of its share of
``--seconds`` (it answers ≈3.6k/s, so a child is busy a third of its share;
spawning the children takes the rest)."""

WINDOW_S = 0.25
"""A server is loaded this long at a time, with a speed sample in between."""

SLOW = 0.85
"""A replay or load window is ``noisy`` when the box ran it below this share
of the median speed it showed during the same run."""


@dataclass(frozen=True)
class Sizes:
    """How much work a run does; ``FULL`` is the benchmark, ``SMOKE`` the test."""

    shrink: int
    """Divides every query count."""
    setup_reps: int
    """How often a replay's inputs are built."""
    children: int
    """How many server children a serve run spawns and loads in turn."""

    def once(self) -> "Sizes":
        """The same sizes with a single set-up."""
        return dataclasses.replace(self, setup_reps=1)


FULL = Sizes(shrink=1, setup_reps=3, children=6)
SMOKE = Sizes(shrink=20, setup_reps=1, children=1)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    """``replay``, ``closed_warm``, ``closed_cold`` or ``open_warm``."""
    why: str
    workload: WorkloadConfig = WEEK
    scheme: str = "vanilla"
    attack: AttackSpec | None = None
    gated: bool = True
    """Listed in ``BENCHMARK.json``.  Its run budget pays for three workloads at
    a length that repeats even when the box runs a third slower; the other
    three are in the ledger all the same."""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "replay_hot", "replay",
            "97 % cache hits at ~4.5 us/query: DnsCache.get, handle_stub_query "
            "entry, idle advance_to and trace iteration do the work; the miss "
            "path does little",
            workload=WorkloadConfig(
                duration_days=0.02, queries_per_day=30_000_000, num_clients=250,
                qtype_mix=((RRType.A, 1.0),),
            ),
        ),
        Workload(
            "replay_cold", "replay",
            "28 % hits, >1 upstream exchange per stub query: _query_zone/_ingest, "
            "Network.query, AuthoritativeServer.respond, DnsCache.put; the same "
            "cache used for writes instead of reads",
            workload=WorkloadConfig(
                duration_days=20.0, queries_per_day=4_000, num_clients=250,
            ),
            gated=False,
        ),
        Workload(
            "replay_renewal_attack", "replay",
            "the paper's experiment (a-lfu:5, root+TLD blackout on day 7): renewal "
            "queries outnumber demand ones, so timers, event-queue drain and "
            "attack-schedule lookups dominate; the other replays fire no timer",
            scheme="a-lfu:5", attack=AttackSpec(),
        ),
        Workload(
            "serve_closed_warm", "closed_warm",
            "real `repro serve` child, 2 closed-loop UDP clients, cache warmed: the "
            "core does a hit, so wire codec, loop-to-resolver-thread hop and sockets "
            "do the work",
        ),
        Workload(
            "serve_closed_cold", "closed_cold",
            "fresh `repro serve` children, every query a distinct host and a miss: "
            "the same front end with the core doing the work, which exposes the "
            "30x serve-vs-replay miss-cost gap",
            gated=False,
        ),
        Workload(
            "serve_open_warm", "open_warm",
            "warmed server under a seeded Poisson schedule at a fixed 1000 qps, "
            "latency from each query's due time: queueing shows in latency before "
            "throughput moves",
            gated=False,
        ),
    )
}


@dataclass
class RunRecord:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    """Why ``correct`` is false (empty otherwise)."""
    end_to_end: dict[str, dict[str, Any]] = field(default_factory=dict)
    per_layer: dict[str, dict[str, Any]] = field(default_factory=dict)
    reps: int = 0
    """Replays or load windows the end-to-end numbers rest on."""
    noisy_reps: int = 0
    """How many of them ran more than 15 % below the run's median pace."""

    def put(self, table: str, name: str, value: float, unit: str, n: int) -> None:
        """File one metric with its unit and the sample count behind it."""
        getattr(self, table)[name] = {"value": float(value), "unit": unit, "n": n}

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    return sorted_values[int(fraction * (len(sorted_values) - 1))]


PERCENTILES = (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def scaled(config: WorkloadConfig, sizes: Sizes) -> WorkloadConfig:
    return dataclasses.replace(
        config, queries_per_day=config.queries_per_day / sizes.shrink)


def make_trace(
    built: BuiltHierarchy, config: WorkloadConfig, name: str, seed: int
) -> Trace:
    return TraceGenerator(built.catalog, config, seed=WORLD_SEED).generate(
        name, stream=seed
    )


class ChunkTimedTrace(Trace):
    """A trace that stops the clock every ``len/CHUNKS`` queries it yields.

    ``run_replay`` is one opaque call; iterating its input is the one
    place a caller can look in from outside.  Between two slices the
    iterator notes when the last one ended, samples the box's speed, and
    notes when the next one starts, so each slice has its own duration
    (the kernel's time left out) and its own speed.
    """

    def __init__(self, trace: Trace, gauge: SpeedGauge) -> None:
        super().__init__(trace.name, trace.duration, trace.queries)
        self.gauge = gauge
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kernel: list[Sample] = []

    def __iter__(self) -> Iterator[TraceQuery]:
        clock = time.perf_counter_ns
        sample = self.gauge.sample
        queries = self.queries
        step = max(1, -(-len(queries) // CHUNKS))
        for begin in range(0, len(queries), step):
            self.ends.append(clock())
            self.kernel.append(sample())
            self.starts.append(clock())
            yield from queries[begin:begin + step]


# ---------------------------------------------------------------------------
# Replay workloads
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """One ``run_replay`` call, cut into slices."""

    starts: np.ndarray
    ends: np.ndarray
    """Clock readings (ns) at which each slice began and ended."""
    speeds: np.ndarray
    """The box's speed over each slice."""
    cpu_s: float
    result: ReplayResult

    @property
    def scaled_ns(self) -> np.ndarray:
        """Each slice's duration at reference speed."""
        return (self.ends - self.starts) * self.speeds


def digest(result: ReplayResult) -> dict[str, Any]:
    """The simulated outcome of a replay: what must not change."""
    metrics, window = result.metrics, result.window
    return {
        "sr_queries": metrics.sr_queries,
        "sr_cache_hits": metrics.sr_cache_hits,
        "sr_failures": metrics.sr_failures,
        "cs_demand_queries": metrics.cs_demand_queries,
        "cs_renewal_queries": metrics.cs_renewal_queries,
        "bytes_out": metrics.bytes_out,
        "window": None if window is None else {
            "sr_queries": window.sr_queries,
            "sr_failures": window.sr_failures,
            "cs_queries": window.cs_queries,
            "cs_failures": window.cs_failures,
        },
    }


def one_rep(
    built: BuiltHierarchy, trace: Trace, spec: Workload, gauge: SpeedGauge
) -> Rep:
    timed = ChunkTimedTrace(trace, gauge)
    config = parse_scheme(spec.scheme)
    cpu = time.process_time()
    begin = time.perf_counter_ns()
    result = harness.run_replay(built, timed, config, attack=spec.attack)
    end = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu
    # The first slice takes in run_replay's own set-up and the last one its
    # final advance and finalisation, so the slices add up to the call.
    kernel = [*timed.kernel, gauge.sample()]
    return Rep(
        starts=np.array([begin, *timed.starts[1:]], dtype=np.int64),
        ends=np.array([*timed.ends[1:], end], dtype=np.int64),
        speeds=np.array([speed(a, b) for a, b in zip(kernel, kernel[1:])]),
        cpu_s=cpu_s,
        result=result,
    )


def typical_seconds(reps: list[Rep]) -> float:
    """One replay at reference speed: each slice's median over the reps, summed."""
    return float(np.median([rep.scaled_ns for rep in reps], axis=0).sum()) / 1e9


def slice_ms_per_query(reps: list[Rep], queries: int) -> list[float]:
    """Per slice, the time one stub query took there (ms at reference speed), sorted.

    A replay serves nobody, so its "latency" is read along the trace: the
    median slice is the usual cost of a stub query, the slowest slices are
    the stretches where the cache is cold or an attack is on.  Each slice's
    time is the median over the reps, as for :func:`typical_seconds`.
    """
    slices = np.median([rep.scaled_ns for rep in reps], axis=0)
    edges = np.append(np.arange(0, queries, max(1, -(-queries // CHUNKS))), queries)
    return sorted((slices / np.diff(edges) / 1e6).tolist())


MIN_REPS = 3
"""A slice's median over fewer replays is no defence against one bad slice."""


def timed_reps(
    built: BuiltHierarchy, trace: Trace, spec: Workload, gauge: SpeedGauge,
    seconds: float,
) -> list[Rep]:
    """Whole replays, back to back, until ``seconds`` have passed (at least 3)."""
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(one_rep(built, trace, spec, gauge))
    return reps


@dataclass
class ReplayInputs:
    built: BuiltHierarchy
    trace: Trace
    build_s: list[float]
    generate_s: list[float]
    """Per set-up, at reference speed."""


def setup_replay(
    spec: Workload, seed: int, sizes: Sizes, gauge: SpeedGauge
) -> ReplayInputs:
    """Build the inputs ``setup_reps`` times; keep the last, time them all."""
    config = scaled(spec.workload, sizes)
    build_s: list[float] = []
    generate_s: list[float] = []
    built = trace = None
    for _ in range(sizes.setup_reps):
        built = trace = None  # free the previous copy before building the next
        kernel = [gauge.sample()]
        begin = time.perf_counter()
        built = build_hierarchy(HIERARCHY, seed=WORLD_SEED)
        middle = time.perf_counter()
        kernel.append(gauge.sample())
        resumed = time.perf_counter()
        trace = make_trace(built, config, spec.name, seed)
        end = time.perf_counter()
        kernel.append(gauge.sample())
        build_s.append((middle - begin) * speed(*kernel[:2]))
        generate_s.append((end - resumed) * speed(*kernel[1:]))
    assert built is not None and trace is not None
    return ReplayInputs(built, trace, build_s, generate_s)


def check_replays(
    record: RunRecord, spec: Workload, seed: int, sizes: Sizes, reps: list[Rep],
    golden: dict[str, Any],
) -> None:
    """Count failed stub queries: reps that disagree, or miss the golden."""
    first = digest(reps[0].result)
    for rep in reps:
        queries = rep.result.metrics.sr_queries
        record.attempted += queries
        if digest(rep.result) != first:
            record.failed += queries
            record.fail("replays of one trace disagree")
    pinned = golden.get(spec.name) if seed == WORLD_SEED and sizes is FULL else None
    if pinned is not None and pinned != first:
        record.failed = record.attempted
        record.fail(f"digest {json.dumps(first)} differs from golden.json's "
                    f"{json.dumps(pinned)}")


def count_noisy(record: RunRecord, reps: list[Rep]) -> None:
    speeds = [float(rep.speeds.mean()) for rep in reps]
    record.reps = len(reps)
    record.noisy_reps = sum(pace < SLOW * statistics.median(speeds) for pace in speeds)


def simulated_metrics(result: ReplayResult) -> tuple[float, float]:
    """(sim_sr_fail_pct, sim_cs_per_sr) of one replay."""
    metrics, window = result.metrics, result.window
    fail_pct = 0.0 if window is None else window.sr_failure_rate * 100.0
    upstream = metrics.cs_demand_queries + metrics.cs_renewal_queries
    return fail_pct, upstream / metrics.sr_queries


def run_replay_workload(
    spec: Workload, seed: int, seconds: float, sizes: Sizes, golden: dict[str, Any]
) -> RunRecord:
    record = RunRecord(spec.name, seed, seconds, traced=False)
    gauge = SpeedGauge()
    inputs = setup_replay(spec, seed, sizes, gauge)
    setup = [b + g for b, g in zip(inputs.build_s, inputs.generate_s)]

    # First pass in this process: it fills the process-wide memos, so it is
    # checked like the others but is no timing sample.
    first = one_rep(inputs.built, inputs.trace, spec, gauge)
    reps = timed_reps(inputs.built, inputs.trace, spec, gauge, seconds)
    count_noisy(record, reps)
    check_replays(record, spec, seed, sizes, [first, *reps], golden)
    fail_pct, cs_per_sr = simulated_metrics(reps[0].result)
    service_ms = slice_ms_per_query(reps, len(inputs.trace))

    put = record.put
    put("end_to_end", "setup_s", statistics.median(setup), "s", len(setup))
    put("end_to_end", "qps", len(inputs.trace) / typical_seconds(reps), "1/s", len(reps))
    for name, fraction in PERCENTILES:
        put("end_to_end", name, percentile(service_ms, fraction), "ms", len(service_ms))
    put("end_to_end", "failed_share", record.failed / record.attempted, "fraction",
        record.attempted)
    put("end_to_end", "peak_rss_mb", peak_rss_mb(), "MB", 1)
    put("end_to_end", "sim_sr_fail_pct", fail_pct, "%", 1)
    put("end_to_end", "sim_cs_per_sr", cs_per_sr, "ratio", 1)
    return record


def install_replay_layers(tracer: SpanTracer) -> None:
    """Wrap the public callable at every layer boundary of a replay.

    ``run_replay`` itself is not wrapped: the harness layer is whatever
    part of each slice no span covers.
    """

    def timer_layer(action: Any) -> str:
        module = getattr(action, "__module__", "")
        return "renewal.timer" if module == RenewalManager.__module__ else "engine.event"

    tracer.wrap(SimulationEngine, "advance_to", "engine.advance_to")
    tracer.wrap_scheduled(SimulationEngine, "schedule", timer_layer)
    tracer.wrap_scheduled(SimulationEngine, "schedule_in", timer_layer)
    tracer.wrap(RenewalManager, "note_irrs_cached", "renewal")
    tracer.wrap(DnsCache, "get", "cache.get")
    tracer.wrap(DnsCache, "put", "cache.put")
    tracer.wrap(DnsCache, "best_zone_for", "cache.best_zone_for")
    tracer.wrap(CachingServer, "handle_stub_query", "resolver", opens_query=True)
    tracer.wrap(Network, "query", "network.query")
    tracer.wrap(AuthoritativeServer, "respond", "authserver.respond")
    tracer.wrap(ReplayMetrics, "record_exchange", "metrics.record_exchange")


def trace_replay_workload(
    spec: Workload, seed: int, seconds: float, sizes: Sizes, golden: dict[str, Any],
    spans_out: str | None,
) -> RunRecord:
    """Untraced, traced, traced, untraced replays; the layers of the traced two.

    Two of each, as an untraced run has at least two: slice by slice the
    traced pair's median is held against the untraced pair's, both at
    reference speed, so the layers are compared with a like-for-like total.
    """
    record = RunRecord(spec.name, seed, seconds, traced=True)
    gauge = SpeedGauge()
    inputs = setup_replay(spec, seed, sizes.once(), gauge)
    built, trace = inputs.built, inputs.trace
    tracer = SpanTracer()
    tracer.calibrate()

    before = one_rep(built, trace, spec, gauge)
    install_replay_layers(tracer)
    try:
        traced = [one_rep(built, trace, spec, gauge) for _ in range(2)]
    finally:
        tracer.uninstall()
    after = one_rep(built, trace, spec, gauge)
    check_replays(record, spec, seed, sizes, [before, *traced, after], golden)
    spans = tracer.spans()
    if spans_out is not None:
        tracer.write(spans_out, spans)

    # (rep, slice, layer) -> (slice, layer): the median of the two reps.
    tables = [
        tracer.slice_table(spans, rep.starts, rep.ends, rep.speeds) for rep in traced]
    layer_calls = np.mean([calls for calls, _ in tables], axis=0).sum(axis=0)
    layer_self = np.median([self_ns for _, self_ns in tables], axis=0).sum(axis=0)
    index = {name: i for i, name in enumerate([*tracer.layers, "harness"])}
    untraced_s = typical_seconds([before, after])
    metrics = traced[0].result.metrics
    stub = metrics.sr_queries

    def self_ns(*layers: str) -> float:
        return sum(layer_self[index[name]] for name in layers if name in index) / stub

    def calls(*layers: str) -> float:
        return sum(layer_calls[index[name]] for name in layers if name in index) / stub

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    fail_pct, cs_per_sr = simulated_metrics(traced[0].result)
    values: dict[str, tuple[float, str]] = {
        "hierarchy.build_s": (inputs.build_s[0], "s"),
        "workload.generate_s": (inputs.generate_s[0], "s"),
        "harness.self_ns_per_sq": (self_ns("harness"), "ns"),
        "harness.cpu_s": (statistics.median([before.cpu_s, after.cpu_s]), "s"),
        "engine.advance_to.calls_per_sq": (calls("engine.advance_to"), "count"),
        "engine.advance_to.self_ns_per_sq": (self_ns("engine.advance_to"), "ns"),
        "engine.events_per_sq": (calls("renewal.timer", "engine.event"), "count"),
        "renewal.self_ns_per_sq": (self_ns("renewal", "renewal.timer"), "ns"),
        "renewal.queries_per_sq": (metrics.cs_renewal_queries / stub, "count"),
        "renewal.failed_ratio": (
            ratio(metrics.cs_renewal_failures, metrics.cs_renewal_queries), "ratio"),
        "cache.get.calls_per_sq": (calls("cache.get"), "count"),
        "cache.get.self_ns_per_sq": (self_ns("cache.get"), "ns"),
        "cache.hit_ratio": (metrics.sr_cache_hits / stub, "ratio"),
        "cache.put.calls_per_sq": (calls("cache.put"), "count"),
        "cache.put.self_ns_per_sq": (self_ns("cache.put"), "ns"),
        "cache.best_zone_for.self_ns_per_sq": (self_ns("cache.best_zone_for"), "ns"),
        "cache.entries_end": (
            traced[0].result.server.cache.total_entry_count(), "count"),
        "resolver.self_ns_per_sq": (self_ns("resolver"), "ns"),
        "resolver.upstream_per_sq": (metrics.cs_demand_queries / stub, "count"),
        "resolver.sr_failures": (metrics.sr_failures, "count"),
        "network.query.calls_per_sq": (calls("network.query"), "count"),
        "network.query.self_ns_per_sq": (self_ns("network.query"), "ns"),
        "network.fail_ratio": (
            ratio(metrics.cs_demand_failures, metrics.cs_demand_queries), "ratio"),
        "authserver.respond.self_ns_per_sq": (self_ns("authserver.respond"), "ns"),
        "metrics.record_exchange.self_ns_per_sq": (
            self_ns("metrics.record_exchange"), "ns"),
        "trace.overhead_ratio": (typical_seconds(traced) / untraced_s, "ratio"),
        "ledger.coverage": (self_ns(*index) / (untraced_s * 1e9 / stub), "ratio"),
        "p99_ms": (percentile(slice_ms_per_query([before, after], len(trace)), 0.99), "ms"),
        "failed_share": (record.failed / record.attempted, "fraction"),
        "sim_sr_fail_pct": (fail_pct, "%"),
        "sim_cs_per_sr": (cs_per_sr, "ratio"),
    }
    for name, (value, unit) in values.items():
        record.put("per_layer", name, value, unit, stub)
    count_noisy(record, [before, *traced, after])
    return record


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


Reference = dict[Name, tuple[RRType, frozenset[str]]]


def reference_answers(built: BuiltHierarchy, names: list[Name]) -> Reference:
    """What a plain ``CachingServer`` over ``Network(tree)`` answers for each name."""
    engine = SimulationEngine()
    server = CachingServer(
        root_hints=built.tree.root_hints(), network=Network(built.tree), clock=engine,
    )
    answers: Reference = {}
    for name in names:
        if name in answers:
            continue
        answer = server.handle_stub_query(name, RRType.A, engine.now).answer
        if answer is None:
            raise ValueError(f"{name} has no A answer; pick another workload name")
        answers[name] = (answer.rrtype, frozenset(str(r.data) for r in answer.records))
    return answers


def encode_all(names: list[Name]) -> tuple[list[bytes], list[int]]:
    """One query packet per name (ids cycle 1..65535) and each call's cost."""
    packets: list[bytes] = []
    cost: list[int] = []
    clock = time.perf_counter_ns
    for index, name in enumerate(names):
        begin = clock()
        packet = encode_query(Question(name, RRType.A), index % 0xFFFF + 1)
        cost.append(clock() - begin)
        packets.append(packet)
    return packets, cost


def wrong_answers(
    load: LoadResult, names: list[Name], reference: Reference
) -> tuple[int, list[int]]:
    """Replies that are not the reference answer, and each decode's cost."""
    wrong = 0
    cost: list[int] = []
    clock = time.perf_counter_ns
    for index, data in load.replies:
        begin = clock()
        try:
            message = decode_message(data).message
        except WireFormatError:
            wrong += 1
            continue
        cost.append(clock() - begin)
        rrtype, rdata = reference[names[index]]
        good = (
            message.rcode is Rcode.NOERROR
            and len(message.answer) == 1
            and message.answer[0].rrtype is rrtype
            and frozenset(str(r.data) for r in message.answer[0].records) == rdata
        )
        wrong += not good
    return wrong, cost


_DNS_LINE = re.compile(r"DNS on ([\d.]+):(\d+)")
_METRICS_LINE = re.compile(r"metrics on (http://\S+)")
_COUNTER = re.compile(r"^repro_serve_(\w+?)(?:_total)? (\d+)$", re.MULTILINE)
STARTUP_LIMIT_S = 60.0


class ServeChild:
    """One ``repro serve`` process: spawned, probed, scraped, stopped."""

    def __init__(
        self, probe: Name, reference: Reference, samples_out: Path | None = None
    ) -> None:
        begin = time.perf_counter()
        program = (
            ["-m", "repro"] if samples_out is None
            else [str(HERE / "serve_child.py"), str(samples_out)]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-u", *program, "serve", "--scale", "small",
             "--seed", str(WORLD_SEED), "--port", "0", "--metrics-port", "0",
             "--print-names", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        )
        try:
            self.address, self.metrics_url = self._read_banner()
            self._first_answer(probe, reference)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begin

    def _read_banner(self) -> tuple[tuple[str, int], str]:
        """Read the child's start-up lines until both addresses are known."""
        seen = ""
        deadline = time.perf_counter() + STARTUP_LIMIT_S
        stdout = self.process.stdout
        assert stdout is not None
        while True:
            dns, metrics = _DNS_LINE.search(seen), _METRICS_LINE.search(seen)
            if dns and metrics and seen.endswith("\n"):
                return (dns.group(1), int(dns.group(2))), metrics.group(1)
            wait = deadline - time.perf_counter()
            # Raw reads: a buffered readline() can swallow the second line
            # and leave select() waiting on an empty pipe.
            if wait <= 0 or not select.select([stdout], [], [], wait)[0]:
                raise RuntimeError(f"serve child silent for {STARTUP_LIMIT_S}s: {seen!r}")
            data = os.read(stdout.fileno(), 4096)
            if not data:
                raise RuntimeError(
                    f"serve child exited with {self.process.wait()}: {seen!r}")
            seen += data.decode("utf-8", "replace")

    def _first_answer(self, probe: Name, reference: Reference) -> None:
        packets, _ = encode_all([probe])
        load = run_closed(self.address, packets, clients=1, timeout=STARTUP_LIMIT_S)
        if len(load.replies) != 1 or wrong_answers(load, [probe], reference)[0]:
            raise RuntimeError("serve child's first answer is not the reference one")

    def counters(self) -> dict[str, int]:
        """The front end's own ``repro_serve_*`` counters, scraped over HTTP."""
        with urllib.request.urlopen(self.metrics_url, timeout=10) as response:
            body = response.read().decode("utf-8")
        return {name: int(value) for name, value in _COUNTER.findall(body)}

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """Terminate the child and wait until it is gone."""
        self.process.terminate()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class ServeInputs:
    names: list[Name]
    """The query sequence (with repeats, or distinct hosts for the cold run)."""
    packets: list[bytes]
    reference: Reference
    encode_ns: list[int]


def serve_inputs(spec: Workload, seed: int, seconds: float, sizes: Sizes) -> ServeInputs:
    built = build_hierarchy(HIERARCHY, seed=WORLD_SEED)
    if spec.kind == "closed_cold":
        hosts = sorted({host for hosts in built.catalog.values() for host in hosts})
        random.Random(seed).shuffle(hosts)
        share = seconds / sizes.children
        names = hosts[:max(50, int(share * COLD_HOSTS_PER_SECOND))]
    else:
        trace = make_trace(built, WEEK, spec.name, seed)
        names = [query.qname for query in trace.queries[:WARM_NAMES // sizes.shrink]]
    reference = reference_answers(built, names)
    packets, encode_ns = encode_all(names)
    return ServeInputs(names, packets, reference, encode_ns)


@dataclass
class Window:
    """One stretch of load with the box's speed over it."""

    load: LoadResult
    speed: float

    def __post_init__(self) -> None:
        self.load.latency_s.sort()

    @property
    def qps(self) -> float:
        """Answers per second of reference time."""
        return len(self.load.replies) / (self.load.wall_s * self.speed)

    def latency_ms(self, fraction: float) -> float:
        """A latency percentile of the window, at reference speed."""
        return percentile(self.load.latency_s, fraction) * self.speed * 1e3


class Loader:
    """Loads one server child window by window and keeps the books."""

    def __init__(
        self, child: ServeChild, inputs: ServeInputs, record: RunRecord, gauge: SpeedGauge
    ) -> None:
        self.child, self.inputs, self.record, self.gauge = child, inputs, record, gauge
        self.cursor = 0
        self.decode_ns: list[int] = []

    def account(self, load: LoadResult, names: list[Name]) -> None:
        """Add one load run to attempted/failed."""
        wrong, decode_ns = wrong_answers(load, names, self.inputs.reference)
        self.decode_ns += decode_ns
        lost = load.sent - len(load.replies)
        self.record.attempted += load.sent
        self.record.failed += lost + wrong
        if lost or wrong:
            self.record.fail(f"{lost} unanswered, {wrong} wrong of {load.sent}")

    def warm_up(self) -> None:
        """One untimed pass over each distinct name, so the timed pass hits."""
        distinct = list(self.inputs.reference)
        packets, _ = encode_all(distinct)
        self.account(run_closed(self.child.address, packets, CLIENTS), distinct)

    def windows(
        self, seconds: float | None, rate: float | None = None, seed: int = 0
    ) -> list[Window]:
        """Load for ``seconds`` (or, with None, until every packet went once).

        Closed loop unless ``rate`` is given; then an open loop offering
        ``rate`` queries per second.  One window per :data:`WINDOW_S`, with
        a speed sample between windows.
        """
        packets = self.inputs.packets
        result: list[Window] = []
        kernel = self.gauge.sample()
        deadline = None if seconds is None else time.perf_counter() + seconds
        while (
            time.perf_counter() < deadline if deadline is not None
            else self.cursor < len(packets)
        ):
            if rate is None:
                load = run_closed(
                    self.child.address, packets, CLIENTS, first=self.cursor,
                    count=None if seconds is not None else len(packets) - self.cursor,
                    seconds=WINDOW_S)
            else:
                load = run_open(
                    self.child.address, packets, rate, WINDOW_S, seed + len(result),
                    first=self.cursor)
            self.cursor += load.sent
            after = self.gauge.sample()
            if load.latency_s:
                result.append(Window(load, speed(kernel, after)))
            kernel = after
            self.account(load, self.inputs.names)
        return result


def pin_to_one_cpu() -> None:
    """Keep this process, and every child it spawns from here on, on one CPU.

    Left to the scheduler, the server's two threads and the driver land
    on one core or on two as it pleases, and on this VM a wake-up across
    cores costs several times one within a core: the same warmed server
    answered 2.6k qps spread over both cores and 6.0k when it happened to
    share one with the driver.  One core is the placement that repeats.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(
    inputs: ServeInputs, gauge: SpeedGauge, samples_out: Path | None = None
) -> tuple[ServeChild, float]:
    """One server child and the time it took to answer, at reference speed."""
    kernel = gauge.sample()
    child = ServeChild(inputs.names[0], inputs.reference, samples_out)
    return child, child.setup_s * speed(kernel, gauge.sample())


def run_serve_workload(
    spec: Workload, seed: int, seconds: float, sizes: Sizes
) -> RunRecord:
    """Load ``sizes.children`` servers one after another, each for its share of the time.

    A server process keeps the pace it was born with (the same child, 10 s
    at a time: ``qps`` and ``p99_ms`` within 3–4 %; twelve children, 5 s
    each: ``p99_ms`` 10 % apart, with the same context switches per query),
    so a run that asks several children comes closer to the next run.
    """
    record = RunRecord(spec.name, seed, seconds, traced=False)
    pin_to_one_cpu()
    gauge = SpeedGauge()
    inputs = serve_inputs(spec, seed, seconds, sizes)
    setup: list[float] = []
    rss: list[float] = []
    windows: list[Window] = []
    for turn in range(sizes.children):
        child, took = spawn(inputs, gauge)
        setup.append(took)
        try:
            loader = Loader(child, inputs, record, gauge)
            if spec.kind == "closed_cold":
                windows += loader.windows(None)
            else:
                loader.warm_up()
                rate = OPEN_RATE if spec.kind == "open_warm" else None
                windows += loader.windows(
                    seconds / sizes.children, rate, seed + 1000 * turn)
            rss.append(child.peak_rss_mb())
        finally:
            child.stop()

    typical = statistics.median(window.speed for window in windows)
    record.reps = len(windows)
    record.noisy_reps = sum(window.speed < SLOW * typical for window in windows)
    answered = sum(len(window.load.replies) for window in windows)
    put = record.put
    put("end_to_end", "setup_s", statistics.median(setup), "s", len(setup))
    if spec.kind == "open_warm":
        # The schedule sets an open loop's rate; only lost queries lower it.
        put("end_to_end", "qps", answered / (WINDOW_S * len(windows)), "1/s", answered)
    else:
        put("end_to_end", "qps", statistics.median(w.qps for w in windows), "1/s",
            len(windows))
    for name, fraction in PERCENTILES:
        put("end_to_end", name,
            statistics.median(w.latency_ms(fraction) for w in windows), "ms", answered)
    put("end_to_end", "failed_share", record.failed / record.attempted, "fraction",
        record.attempted)
    put("end_to_end", "peak_rss_mb", statistics.median(rss), "MB", len(rss))
    return record


def trace_serve_workload(
    spec: Workload, seed: int, seconds: float, sizes: Sizes, scratch: Path
) -> RunRecord:
    """The same load against a child with clocks around its layer calls."""
    record = RunRecord(spec.name, seed, seconds, traced=True)
    pin_to_one_cpu()
    gauge = SpeedGauge()
    inputs = serve_inputs(spec, seed, seconds, sizes)
    scratch.mkdir(parents=True, exist_ok=True)
    samples_out = scratch / f"serve-samples-{spec.name}-{os.getpid()}.json"
    child, _ = spawn(inputs, gauge, samples_out)
    ladder: dict[float, list[Window]] = {}
    try:
        loader = Loader(child, inputs, record, gauge)
        if spec.kind != "closed_cold":
            loader.warm_up()
        before = child.counters()
        if spec.kind == "open_warm":
            # Steps above the server's capacity lose queries by design;
            # only the step the end-to-end numbers are read at must be clean.
            for step, rate in enumerate(OPEN_LADDER):
                probe = RunRecord(spec.name, seed, seconds, traced=True)
                stepper = loader if rate == OPEN_RATE else Loader(
                    child, inputs, probe, gauge)
                ladder[rate] = stepper.windows(
                    seconds / len(OPEN_LADDER), rate, seed + 1000 * step)
            windows = ladder[OPEN_RATE]
        else:
            windows = loader.windows(seconds if spec.kind == "closed_warm" else None)
        after = child.counters()
    finally:
        child.stop()
    server = json.loads(samples_out.read_text())
    samples_out.unlink()

    # Server-side samples come as one list per layer, not per window, so the
    # whole breakdown is scaled by the load's median speed.
    pace = statistics.median(window.speed for window in windows)
    answered = sum(len(window.load.replies) for window in windows)
    p50_us = statistics.median(w.latency_ms(0.50) for w in windows) * 1e3

    def median_of(key: str) -> float:
        return statistics.median(server[key]) * pace if server[key] else 0.0

    inside_us = [median_of(key) / 1e3 for key in
                 ("decode_query_ns", "hop_ns", "resolve_ns", "encode_response_ns")]
    values: dict[str, tuple[float, str]] = {
        "wire.decode_query_ns": (median_of("decode_query_ns"), "ns"),
        "wire.encode_response_ns": (median_of("encode_response_ns"), "ns"),
        "wire.encode_query_ns": (statistics.median(inputs.encode_ns) * pace, "ns"),
        "wire.decode_message_ns": (statistics.median(loader.decode_ns) * pace, "ns"),
        "frontend.hop_us": (inside_us[1], "us"),
        "frontend.resolve_us": (inside_us[2], "us"),
        "frontend.other_us": (p50_us - sum(inside_us), "us"),
        "cache.entries_end": (server["cache_entries_end"], "count"),
        "p99_ms": (statistics.median(w.latency_ms(0.99) for w in windows), "ms"),
        "failed_share": (record.failed / record.attempted, "fraction"),
    }
    for counter in ("singleflight_hits", "stale_served", "servfail", "formerr",
                    "truncated"):
        values[f"frontend.{counter}"] = (after[counter] - before[counter], "count")
    if ladder:
        late_ms = sorted(
            value * w.speed * 1e3 for w in windows for value in w.load.late_s)
        ok = [
            rate for rate, step in ladder.items()
            if all(w.load.sent == len(w.load.replies) for w in step)
            and statistics.median(w.latency_ms(0.90) for w in step) <= OPEN_P90_LIMIT_MS
        ]
        values.update({
            "driver.late_p50_ms": (percentile(late_ms, 0.50), "ms"),
            "driver.late_p99_ms": (percentile(late_ms, 0.99), "ms"),
            "driver.open_p99_ms": (
                statistics.median(w.latency_ms(0.99) for w in windows), "ms"),
            "driver.max_ok_qps": (max(ok, default=0.0), "1/s"),
            "driver.timeouts": (
                sum(w.load.timeouts for step in ladder.values() for w in step), "count"),
        })
    for name, (value, unit) in values.items():
        record.put("per_layer", name, value, unit, answered)
    record.reps = len(windows)
    return record


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_golden() -> dict[str, Any]:
    return json.loads((HERE / "golden.json").read_text())


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, sizes: Sizes = FULL,
    spans_out: str | None = None,
) -> RunRecord:
    """One run of one workload, in this process."""
    spec = WORKLOADS[name]
    if spec.kind == "replay":
        golden = load_golden()
        if traced:
            return trace_replay_workload(spec, seed, seconds, sizes, golden, spans_out)
        return run_replay_workload(spec, seed, seconds, sizes, golden)
    if traced:
        return trace_serve_workload(spec, seed, seconds, sizes, HERE / "out")
    return run_serve_workload(spec, seed, seconds, sizes)

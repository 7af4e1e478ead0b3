"""Trace replay: one caching server, one trace, one scheme, one verdict.

:func:`run_replay` is the single entry point every experiment goes
through.  It wires the scheme's :class:`ResilienceConfig` into a fresh
:class:`CachingServer`, applies (and afterwards undoes) the long-TTL
override on the shared hierarchy, installs the attack schedule, replays
the trace through the discrete-event engine, and returns everything the
figures/tables need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.gaps import GapTracker
from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.summary import AttackWindowRates, ReplaySummary
from repro.hierarchy.builder import (
    AttackerZoneGraft,
    BuiltHierarchy,
    graft_attacker_zone,
    ungraft_attacker_zone,
)
from repro.obs.events import EventKind
from repro.obs.recorder import FlightRecorder
from repro.obs.sinks import TimeSeriesSink
from repro.obs.spec import ObservationContext, ObservationSpec
from repro.obs.timing import StageTimings, maybe_stage
from repro.simulation.adversary import Adversary, AdversarySpec
from repro.simulation.attack import AttackSchedule, AttackWindow, attack_on_root_and_tlds
from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import FaultInjector, FaultSpec
from repro.simulation.metrics import MemorySample, ReplayMetrics, WindowCounters
from repro.simulation.network import Network
from repro.workload.generator import flash_crowd_schedule
from repro.workload.trace import Trace

DAY = 86400.0
HOUR = 3600.0


@dataclass(frozen=True)
class AttackSpec:
    """A declarative attack request for a replay.

    ``targets`` of None means the paper's root+TLD target set.
    ``intensity`` is the per-query drop probability: 1.0 (the default)
    is the paper's total blackout; fractional intensities are resolved
    per query by a fault injector the harness attaches automatically.
    """

    start: float = 6 * DAY
    duration: float = 6 * HOUR
    targets: tuple | None = None
    intensity: float = 1.0

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def partial(self) -> bool:
        """Whether this attack needs per-query fault draws."""
        return self.intensity < 1.0

    def build_schedule(self, built: BuiltHierarchy) -> AttackSchedule:
        if self.targets is None:
            return attack_on_root_and_tlds(
                built.tree, start=self.start, duration=self.duration,
                intensity=self.intensity,
            )
        window = AttackWindow(
            start=self.start, end=self.end,
            target_zones=frozenset(self.targets), intensity=self.intensity,
        )
        return AttackSchedule(built.tree, [window])


@dataclass
class ReplayResult(AttackWindowRates):
    """Everything one replay produced."""

    label: str
    trace_name: str
    metrics: ReplayMetrics
    window: WindowCounters | None
    gap_tracker: GapTracker | None
    server: CachingServer
    recorder: "FlightRecorder | None" = None
    """The flight recorder, when the replay ran observed with a ring."""

    timeseries: "TimeSeriesSink | None" = None
    """The binned time-series sink, when one was requested."""

    event_count: int = 0
    """Events emitted on the observation bus (0 when unobserved)."""

    timings: "StageTimings | None" = field(default=None, repr=False)

    def to_summary(self) -> ReplaySummary:
        """The picklable :class:`ReplaySummary` extract of this result."""
        return ReplaySummary.from_result(self)


def run_replay(
    built: BuiltHierarchy,
    trace: Trace,
    config: ResilienceConfig,
    attack: AttackSpec | None = None,
    track_gaps: bool = False,
    memory_sample_interval: float | None = None,
    seed: int = 0,
    observe: ObservationSpec | None = None,
    timings: StageTimings | None = None,
    faults: FaultSpec | None = None,
    adversary: AdversarySpec | None = None,
    validation: bool = False,
) -> ReplayResult:
    """Replay ``trace`` through a fresh caching server running ``config``.

    The long-TTL override (if the config carries one) is applied to the
    shared hierarchy before the run and restored afterwards, so callers
    may reuse ``built`` across schemes.

    ``observe`` attaches the observability subsystem (DESIGN.md §10) for
    this replay only; ``timings`` accumulates per-stage wall/CPU time.
    ``faults`` attaches the fault-injection layer (DESIGN.md §11); a
    partial-intensity attack attaches one implicitly because the
    per-query intensity rolls need its seeded draws.

    ``adversary`` mounts the Adversary 2.0 attack families (DESIGN.md
    §16).  An NXNS campaign grafts its attacker zone onto the shared
    hierarchy for the duration of the call and ungrafts it afterwards —
    same contract as the long-TTL override, so warm worker pools see
    the tree restored exactly.

    ``validation`` shadows the cache with the naive oracle (DESIGN.md
    §12): every cache operation is cross-checked during the replay and
    the structural invariants are verified at the end.  Expect a
    several-fold slowdown; results are unchanged when it passes.
    """
    tree = built.tree
    saved_state = None
    if config.long_ttl is not None:
        saved_state = tree.capture_irr_state()
        tree.apply_long_ttl(config.long_ttl)
    graft: AttackerZoneGraft | None = None
    if adversary is not None and adversary.nxns is not None:
        graft = graft_attacker_zone(
            tree, adversary.nxns.fan_out, adversary.nxns.delegations
        )
    try:
        return _replay(
            built, trace, config, attack, track_gaps, memory_sample_interval,
            seed, observe, timings, faults, adversary, graft, validation,
        )
    finally:
        if graft is not None:
            ungraft_attacker_zone(tree, graft)
        if saved_state is not None:
            tree.restore_irr_state(saved_state)


def _replay(
    built: BuiltHierarchy,
    trace: Trace,
    config: ResilienceConfig,
    attack: AttackSpec | None,
    track_gaps: bool,
    memory_sample_interval: float | None,
    seed: int,
    observe: ObservationSpec | None,
    timings: StageTimings | None,
    faults: FaultSpec | None,
    adversary: AdversarySpec | None,
    graft: AttackerZoneGraft | None,
    validation: bool,
) -> ReplayResult:
    with maybe_stage(timings, "setup"):
        engine = SimulationEngine()
        context: ObservationContext | None = None
        if observe is not None:
            context = observe.build()
            engine.observer = context.bus
        schedule = attack.build_schedule(built) if attack is not None else None
        injector: FaultInjector | None = None
        if faults is not None or (attack is not None and attack.partial):
            injector = (faults or FaultSpec()).build(seed=seed)
        adv: Adversary | None = None
        if adversary is not None and not adversary.inert:
            adv = adversary.build(
                seed=seed, entropy_bits=config.source_entropy_bits
            )
        network = Network(
            built.tree, attacks=schedule, faults=injector,
            poisoner=adv.poisoner if adv is not None else None,
        )
        metrics = ReplayMetrics()
        window = None
        if attack is not None:
            window = metrics.watch_window(attack.start, attack.end)
        gap_tracker = GapTracker() if track_gaps else None

        server = CachingServer(
            root_hints=built.tree.root_hints(),
            network=network,
            clock=engine,
            config=config,
            metrics=metrics,
            gap_observer=gap_tracker,
            seed=seed,
            observer=context.bus if context is not None else None,
            validation=validation,
        )

        if context is not None and attack is not None:
            _arm_attack_markers(engine, context, attack, trace.duration)
        if memory_sample_interval is not None:
            _arm_memory_sampler(engine, server, metrics, memory_sample_interval,
                                trace.duration)

    with maybe_stage(timings, "replay"):
        injected = (
            _injected_queries(adversary, graft, built, seed)
            if adv is not None else ()
        )
        if not injected:
            # The pre-adversary loop: an inert/absent adversary replays
            # byte-identically to the main path.  The time is read once:
            # a row's fields are NamedTuple getters, which the
            # interpreter does not specialise.
            for query in trace:
                now = query.time
                engine.advance_to(now)
                server.handle_stub_query(query.qname, query.rrtype, now)
        else:
            _replay_with_injections(
                engine, server, metrics, trace, injected
            )
        engine.advance_to(trace.duration)

    with maybe_stage(timings, "finalize"):
        if adv is not None:
            if adv.poisoner is not None:
                metrics.poison_attempts = adv.poisoner.attempts
                metrics.poison_wins = adv.poisoner.wins
            stored, cured, dwells = server.cache.poison_stats(engine.now)
            metrics.poison_stored = stored
            metrics.poison_cured = cured
            metrics.poison_dwells = dwells
        if context is not None:
            context.finish()
        if validation:
            _validate_final_state(server, engine.now, config)
        return ReplayResult(
            label=config.label,
            trace_name=trace.name,
            metrics=metrics,
            window=window,
            gap_tracker=gap_tracker,
            server=server,
            recorder=context.recorder if context is not None else None,
            timeseries=context.timeseries if context is not None else None,
            event_count=context.event_count if context is not None else 0,
            timings=timings,
        )


#: One adversary-injected arrival: (time, kind, qname) with kind 0 for
#: NXNS attack queries and 1 for flash-crowd queries.  The int kind also
#: orders same-instant injections deterministically (attack first).
_Injected = tuple[float, int, Name]


def _injected_queries(
    adversary: AdversarySpec,
    graft: AttackerZoneGraft | None,
    built: BuiltHierarchy,
    seed: int,
) -> list[_Injected]:
    """Every adversary-injected arrival, time-ordered."""
    entries: list[_Injected] = []
    if adversary.nxns is not None and graft is not None:
        for time, qname in adversary.nxns.query_stream(graft.apex):
            entries.append((time, 0, qname))
    if adversary.flash is not None:
        flash = adversary.flash
        for time, qname in flash_crowd_schedule(
            built.catalog,
            start=flash.start,
            duration=flash.duration,
            queries_per_minute=flash.queries_per_minute,
            hot_zones=flash.hot_zones,
            zipf_alpha=flash.zipf_alpha,
            seed=seed,
        ):
            entries.append((time, 1, qname))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def _replay_with_injections(
    engine: SimulationEngine,
    server: CachingServer,
    metrics: ReplayMetrics,
    trace: Trace,
    injected: list[_Injected],
) -> None:
    """The replay loop with adversary arrivals merged into the trace.

    A two-pointer merge over two already-sorted streams; on equal
    timestamps injected arrivals run first (their sort position is
    decided before the trace query is even seen), which is arbitrary
    but fixed — the property that matters for byte-identical logs.
    """
    index = 0
    total = len(injected)
    for query in trace:
        now = query.time
        while index < total and injected[index][0] <= now:
            index = _run_injection(engine, server, metrics, injected, index)
        engine.advance_to(now)
        server.handle_stub_query(query.qname, query.rrtype, now)
    while index < total and injected[index][0] < trace.duration:
        index = _run_injection(engine, server, metrics, injected, index)


def _run_injection(
    engine: SimulationEngine,
    server: CachingServer,
    metrics: ReplayMetrics,
    injected: list[_Injected],
    index: int,
) -> int:
    """Execute one injected arrival; returns the advanced index."""
    time, kind, qname = injected[index]
    engine.advance_to(time)
    if kind == 0:
        server.handle_attack_query(qname, RRType.A, time)
    else:
        # A flash-crowd arrival is legitimate traffic: it runs (and is
        # counted) as a normal stub query, plus its own tally.
        metrics.flash_queries += 1
        server.handle_stub_query(qname, RRType.A, time)
    return index + 1


def _validate_final_state(
    server: CachingServer, now: float, config: ResilienceConfig
) -> None:
    """End-of-replay validation sweep (DESIGN.md §12).

    Runs the full-state differential audit plus the structural
    invariants; imported lazily so unvalidated replays never load the
    validation package.
    """
    from repro.validation.differential import DifferentialCache
    from repro.validation.invariants import (
        check_cache_invariants,
        check_renewal_invariants,
    )

    if isinstance(server.cache, DifferentialCache):
        server.cache.audit(now)
    check_cache_invariants(server.cache, now)
    if server.renewal is not None:
        check_renewal_invariants(
            server.renewal, server.cache, now,
            allow_stale_credit=(
                config.serve_stale or config.swr_grace is not None
            ),
        )


def _arm_attack_markers(
    engine: SimulationEngine,
    context: ObservationContext,
    attack: AttackSpec,
    horizon: float,
) -> None:
    """Emit attack.start / attack.end markers from the virtual clock.

    An end that falls beyond the trace horizon never fires (the replay
    stops first) — the log then simply has no ``attack.end``, which is
    itself informative.
    """
    bus = context.bus
    targets = "root+tlds" if attack.targets is None else str(len(attack.targets))

    def mark_start(now: float) -> None:
        bus.emit(EventKind.ATTACK_START, now,
                 duration=attack.duration, targets=targets)

    def mark_end(now: float) -> None:
        bus.emit(EventKind.ATTACK_END, now, targets=targets)

    engine.schedule(attack.start, mark_start)
    if attack.end <= horizon:
        engine.schedule(attack.end, mark_end)


def _arm_memory_sampler(
    engine: SimulationEngine,
    server: CachingServer,
    metrics: ReplayMetrics,
    interval: float,
    horizon: float,
) -> None:
    """Periodic cache-occupancy sampling (Figure 12's series)."""

    def sample(now: float) -> None:
        metrics.record_memory(
            MemorySample(
                time=now,
                zones_cached=server.cached_zone_count(now),
                records_cached=server.cached_record_count(now),
            )
        )
        next_time = now + interval
        if next_time <= horizon:
            engine.schedule(next_time, sample)

    engine.schedule(interval, sample)

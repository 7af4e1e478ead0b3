"""Trace replay: one caching server, one trace, one scheme, one verdict.

:func:`run_replay` is the single entry point every experiment goes
through.  It wires the scheme's :class:`ResilienceConfig` into a fresh
:class:`CachingServer`, applies (and afterwards undoes) the long-TTL
override on the shared hierarchy, installs the attack schedule and any
zone migrations, replays the trace through the discrete-event engine,
and returns everything the figures/tables need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.hierarchy.builder import (
    AttackerZoneGraft,
    BuiltHierarchy,
    graft_attacker_zone,
    ungraft_attacker_zone,
)
from repro.hierarchy.churn import ChurnSchedule, apply_churn_event
from repro.obs.events import Event, EventBus, EventKind
from repro.obs.spec import ObservationContext, ObservationSpec
from repro.simulation.adversary import Adversary, AdversarySpec
from repro.simulation.attack import AttackSchedule, AttackWindow, attack_on_root_and_tlds
from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import FaultInjector, FaultSpec
from repro.simulation.metrics import MemorySample, ReplayMetrics, WindowCounters
from repro.simulation.network import Network
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
class ReplayResult:
    """Everything one replay produced: its record plus the live objects
    (server, bus) that only an in-process caller can use."""

    label: str
    trace_name: str
    metrics: ReplayMetrics
    server: CachingServer
    bus: "EventBus | None" = None
    """The observation bus with its per-kind tally (None when unobserved)."""

    recent: "tuple[Event, ...]" = ()
    """The last ``ring_size`` events, oldest first (empty without a ring)."""

    @property
    def event_count(self) -> int:
        """Events emitted on the observation bus (0 when unobserved)."""
        return self.bus.emitted if self.bus is not None else 0

    @property
    def window(self) -> WindowCounters | None:
        """The attack-window counters (None without an attack)."""
        return self.metrics.window


def run_replay(
    built: BuiltHierarchy,
    trace: Trace,
    config: ResilienceConfig,
    attack: AttackSpec | None = None,
    track_gaps: bool = False,
    memory_sample_interval: float | None = None,
    seed: int = 0,
    observe: ObservationSpec | None = None,
    faults: FaultSpec | None = None,
    adversary: AdversarySpec | None = None,
    validation: bool = False,
    churn: ChurnSchedule | None = None,
) -> ReplayResult:
    """Replay ``trace`` through a fresh caching server running ``config``.

    The long-TTL override (if the config carries one) is applied to the
    shared hierarchy before the run and restored afterwards, so callers
    may reuse ``built`` across schemes.

    ``observe`` attaches the observability subsystem (DESIGN.md §10) for
    this replay only.  ``faults`` attaches the fault-injection layer
    (DESIGN.md §11); a partial-intensity attack attaches one implicitly
    because the per-query intensity rolls need its seeded draws.

    ``adversary`` mounts the Adversary 2.0 attack families (DESIGN.md
    §16).  An NXNS campaign grafts its attacker zone onto the shared
    hierarchy for the duration of the call and ungrafts it afterwards —
    same contract as the long-TTL override, so warm worker pools see
    the tree restored exactly.

    ``validation`` shadows the cache with the naive oracle (DESIGN.md
    §12): every cache operation is cross-checked during the replay and
    the structural invariants are verified at the end.  Expect a
    several-fold slowdown; results are unchanged when it passes.

    ``churn`` lands each of the schedule's migrations on the tree at its
    time and tells the server through its update channel
    (``handle_invalidation``, a no-op unless the config arms it).  The
    migrations are not undone, so pass a private hierarchy.
    """
    tree = built.tree
    saved_state = None
    if config.long_ttl is not None:
        saved_state = tree.capture_irr_state()
        tree.apply_long_ttl(config.long_ttl)
    graft: AttackerZoneGraft | None = None
    injected: tuple[tuple[float, Name], ...] = ()
    if adversary is not None and adversary.nxns is not None:
        graft = graft_attacker_zone(
            tree, adversary.nxns.fan_out, adversary.nxns.delegations
        )
        injected = adversary.nxns.query_stream(graft.apex)
    try:
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
            tree, attacks=schedule, faults=injector,
            poisoner=adv.poisoner if adv is not None else None,
        )
        metrics = ReplayMetrics(
            window=WindowCounters(attack.start, attack.end)
            if attack is not None else None
        )

        server = CachingServer(
            root_hints=tree.root_hints(),
            network=network,
            clock=engine,
            config=config,
            metrics=metrics,
            gap_observer=metrics.record_gap if track_gaps else None,
            seed=seed,
            observer=context.bus if context is not None else None,
            validation=validation,
        )

        if churn is not None:
            _arm_churn(engine, built, churn, server)
        if context is not None and attack is not None:
            _arm_attack_markers(engine, context.bus, attack, trace.duration)
        if memory_sample_interval is not None:
            _arm_memory_sampler(engine, server, metrics, memory_sample_interval,
                                trace.duration)

        if not injected:
            # The pre-adversary loop: an inert/absent adversary replays
            # byte-identically to the main path.  A row is unpacked, not
            # read by field: the interpreter does not specialise a
            # NamedTuple's field getters.
            for now, _client, qname, rrtype in trace:
                engine.advance_to(now)
                server.handle_stub_query(qname, rrtype, now)
        else:
            _replay_with_injections(engine, server, trace, injected)
        engine.advance_to(trace.duration)

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
            server=server,
            bus=context.bus if context is not None else None,
            recent=tuple(context.ring or ()) if context is not None else (),
        )
    finally:
        if graft is not None:
            ungraft_attacker_zone(tree, graft)
        if saved_state is not None:
            tree.restore_irr_state(saved_state)


def _replay_with_injections(
    engine: SimulationEngine,
    server: CachingServer,
    trace: Trace,
    injected: tuple[tuple[float, Name], ...],
) -> None:
    """The replay loop with NXNS attack queries merged into the trace.

    A two-pointer merge over two already-sorted streams; on equal
    timestamps attack queries run first, which is arbitrary but fixed —
    the property that matters for byte-identical logs.
    """
    index = 0
    total = len(injected)
    for now, _client, qname, rrtype in trace:
        while index < total and injected[index][0] <= now:
            index = _run_injection(engine, server, injected, index)
        engine.advance_to(now)
        server.handle_stub_query(qname, rrtype, now)
    while index < total and injected[index][0] < trace.duration:
        index = _run_injection(engine, server, injected, index)


def _run_injection(
    engine: SimulationEngine,
    server: CachingServer,
    injected: tuple[tuple[float, Name], ...],
    index: int,
) -> int:
    """Execute one attack query; returns the advanced index."""
    time, qname = injected[index]
    engine.advance_to(time)
    server.handle_attack_query(qname, RRType.A, time)
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


def _arm_churn(
    engine: SimulationEngine,
    built: BuiltHierarchy,
    churn: ChurnSchedule,
    server: CachingServer,
) -> None:
    """Schedule every migration of ``churn`` at its virtual time."""
    listeners = (server.handle_invalidation,)
    for event in churn.events:
        engine.schedule(
            event.time,
            lambda now, event=event: apply_churn_event(
                built.tree, event, decommission_old=churn.decommission_old,
                listeners=listeners,
            ),
        )


def _arm_attack_markers(
    engine: SimulationEngine,
    bus: EventBus,
    attack: AttackSpec,
    horizon: float,
) -> None:
    """Emit attack.start / attack.end markers from the virtual clock.

    An end that falls beyond the trace horizon never fires (the replay
    stops first) — the log then simply has no ``attack.end``, which is
    itself informative.
    """
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

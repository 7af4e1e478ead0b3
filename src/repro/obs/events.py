"""The typed event bus behind the observability subsystem.

Simulation components emit :class:`Event` values describing what just
happened (a cache hit, a CS→AN query attempt, a renewal credit spend)
through an :class:`EventBus`, which tallies them per kind.  Subscribers
— an event ring and the JSONL log — receive every event synchronously,
in emission order.

Two properties carry the whole design:

* **Zero cost when disabled.**  No bus is constructed unless a replay
  asks for observation; instrumentation sites hold ``EventBus | None``
  and the hottest path (``DnsCache.get``) swaps in an instrumented
  method only when a bus attaches, so the disabled simulator executes
  the exact same bytecode it did before this subsystem existed.
* **Determinism.**  Event times come from the virtual clock only and
  the sequence number is a per-bus counter, so the same spec + seed
  yields a byte-identical event stream (the ``repro check`` invariants
  of DESIGN.md §9 extend to the event log).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable


class EventKind(enum.Enum):
    """The closed taxonomy of simulation events (DESIGN.md §10)."""

    # Members are singletons compared by identity, so the identity hash
    # is a value hash, and it runs in C: ``Enum.__hash__`` hashes the
    # member's name in Python, and a served hit books three counts, each
    # a dict get and a set.  Neither hash is stable across processes
    # (``PYTHONHASHSEED`` moves the name's), so no output may depend on
    # the order of a set of kinds; renderers sort by value.
    __hash__ = object.__hash__

    # Stub-resolver surface.
    STUB_QUERY = "stub.query"
    """A stub query arrived at the caching server."""

    STUB_OUTCOME = "stub.outcome"
    """The stub query completed (fields: ``outcome``, ``failed``)."""

    # CS → AN traffic.
    QUERY_ISSUED = "query.issued"
    """One query attempt left for an authoritative server."""

    QUERY_ANSWERED = "query.answered"
    """The attempt was answered (field ``latency``)."""

    QUERY_FAILED = "query.failed"
    """The attempt timed out / was blocked / hit a lame server."""

    QUERY_RETRY = "query.retry"
    """A retransmit to the same server (field ``attempt``, 1-based),
    driven by the resolver's :class:`~repro.core.config.RetryPolicy`."""

    SERVER_HOLDDOWN = "server.holddown"
    """A server crossed its consecutive-failure threshold and was
    sidelined until ``until`` (BIND-style dead-server hold-down)."""

    FAULT_DROP = "fault.drop"
    """The fault-injection layer swallowed a query (field ``reason``:
    ``attack`` / ``loss`` / ``flap``)."""

    FETCH_RETRY = "fetch.retry"
    """A zone's whole server set failed; the resolver climbs to the
    parent to reset the IRR (paper §4's recovery path)."""

    # Cache surface.
    CACHE_HIT = "cache.hit"
    CACHE_MISS = "cache.miss"
    CACHE_EXPIRED = "cache.expired"
    """A lookup found only a lapsed entry (the expiry observed)."""

    CACHE_EVICTED = "cache.evicted"
    """Capacity eviction (bounded caches only)."""

    # Renewal machinery.
    RENEWAL_SPEND = "renewal.spend"
    """One renewal credit was spent on a refetch attempt."""

    RENEWAL_RENEWED = "renewal.renewed"
    """The refetch succeeded; the zone's TTL countdown restarted."""

    RENEWAL_LAPSE = "renewal.lapse"
    """The zone's IRRs lapsed (no credit, or the refetch failed)."""

    # Attack schedule markers.
    ATTACK_START = "attack.start"
    ATTACK_END = "attack.end"

    # Adversary 2.0 (DESIGN.md §16).  Emitted only when the adversary or
    # a defense is armed, so pre-existing event logs keep their bytes.
    ATTACK_NXNS = "attack.nxns"
    """One NXNS attack query hit the resolver (fields: ``qname``,
    ``cs_queries`` — the upstream fan-out it triggered)."""

    CACHE_POISONED = "cache.poisoned"
    """A forged RRset won its race and was accepted by the cache."""

    DEFENSE_BUDGET_EXHAUSTED = "defense.budget_exhausted"
    """A work limit refused an upstream sub-resolution (field
    ``mechanism``: ``fetch-budget`` / ``nxns-cap``)."""

    # Renewal 2.0 (DESIGN.md §17).  Emitted only when the ``swr`` /
    # ``decoupled`` schemes are armed, so pre-existing event logs keep
    # their bytes.
    CACHE_SWR_REFRESH = "cache.swr_refresh"
    """A stale hit inside the SWR grace window scheduled one
    deduplicated background refetch (fields: ``qname``, ``rrtype``)."""

    CACHE_INVALIDATED = "cache.invalidated"
    """A churn invalidation evicted a zone's stranded NS/glue and
    queued a background re-learn (field ``zone``)."""

    # Engine timers.
    TIMER_FIRED = "engine.timer"
    """A scheduled virtual-time event fired."""


@dataclass(frozen=True, slots=True)
class Event:
    """One structured simulation event.

    ``data`` is a key-sorted tuple of pairs (not a dict) so events are
    hashable, picklable and serialise identically everywhere.
    """

    seq: int
    time: float
    kind: EventKind
    data: "tuple[tuple[str, str | int | float | bool | None], ...]" = ()

    def get(self, key: str) -> "str | int | float | bool | None":
        """The value for ``key``, or None when absent."""
        for name, value in self.data:
            if name == key:
                return value
        return None

    def to_json(self) -> str:
        """The canonical one-line JSON form (byte-stable across runs)."""
        payload: dict[str, object] = {
            "kind": self.kind.value,
            "seq": self.seq,
            "t": self.time,
        }
        for name, value in self.data:
            payload[name] = value
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


EventHandler = Callable[[Event], None]


class EventBus:
    """Synchronous fan-out of :class:`Event` values to subscribers.

    The bus is the one tally of a run: every ``emit`` moves the sequence
    number, a per-kind count and the latest event time before any
    :class:`Event` is built, so every consumer that only needs totals
    (the metrics dump, ``repro replay --last``, the serve scrape) reads
    :meth:`counts` / :attr:`emitted` / :attr:`last_time` instead of
    subscribing — and a bus with no subscriber never builds an event at
    all.  Hot call sites go one step further: while :attr:`quiet` holds
    they call :meth:`count`, which books exactly what ``emit`` would
    without the caller building the payload.
    """

    __slots__ = ("_seq", "_counts", "_last_time", "_handlers", "quiet")

    def __init__(self) -> None:
        self._seq = 0
        self._counts: dict[EventKind, int] = {}
        self._last_time = 0.0
        self._handlers: list[EventHandler] = []
        self.quiet = True
        """True until the first :meth:`subscribe`: no event has a reader."""

    def subscribe(self, handler: EventHandler) -> None:
        """Deliver every later event to ``handler``."""
        self.quiet = False
        self._handlers.append(handler)

    def emit(
        self,
        kind: EventKind,
        time: float,
        **data: "str | int | float | bool | None",
    ) -> "Event | None":
        """Publish one event; returns it, or None when nobody listened."""
        seq = self._seq
        self._seq = seq + 1
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if time > self._last_time:
            self._last_time = time
        handlers = self._handlers
        if not handlers:
            return None
        event = Event(
            seq=seq,
            time=time,
            kind=kind,
            data=tuple(sorted(data.items())),
        )
        for handler in handlers:
            handler(event)
        return event

    def count(self, kind: EventKind, time: float) -> None:
        """Book one event nobody reads: ``emit`` minus the payload.

        The sequence number, per-kind tally and :attr:`last_time` move
        exactly as ``emit`` would move them; only call it while
        :attr:`quiet` holds.
        """
        self._seq += 1
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if time > self._last_time:
            self._last_time = time

    @property
    def emitted(self) -> int:
        """Events published so far (including unobserved ones)."""
        return self._seq

    def counts(self) -> dict[EventKind, int]:
        """Events published so far, per kind (a snapshot)."""
        return dict(self._counts)

    @property
    def last_time(self) -> float:
        """The latest event time published so far (0.0 before any)."""
        return self._last_time

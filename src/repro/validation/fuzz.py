"""Seeded op-sequence fuzzing for the differential cache, plus the
regression corpus that reproduces each bug the subsystem has caught.

No third-party fuzzing framework: sequences come from a seeded
``random.Random`` so every failure is reproducible from ``(seed,
round)`` alone and the determinism lint (REP002) stays happy.

Two layers:

* **Corpus** — hand-written op sequences, one per fixed bug, replayed
  through :func:`apply_ops` on every ``repro validate`` run.  If a fix
  regresses, the corresponding case fails with a
  :class:`~repro.validation.errors.DivergenceError` naming the
  operation.
* **Fuzzer** — :func:`run_fuzz` generates random put/get/expiry/
  eviction/purge orderings (including occasional backwards-clock reads,
  which the incremental counters must survive via their scan fallback)
  against randomly sized caches, auditing the full state periodically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.cache import DnsCache, NegativeVerdict
from repro.core.policies import LRUPolicy
from repro.core.renewal import RenewalManager
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.engine import SimulationEngine
from repro.validation.differential import DifferentialCache
from repro.validation.errors import InvariantViolation, ValidationError
from repro.validation.invariants import (
    check_cache_invariants,
    check_renewal_invariants,
)

#: An op is ``(opcode, *args)``; see :func:`apply_ops` for the opcodes.
Op = tuple[object, ...]


def make_rrset(owner: str, rrtype: RRType, ttl: float, data: str) -> RRset:
    """A single-record RRset for op sequences (Name-valued where needed)."""
    name = Name.from_text(owner)
    rdata: Name | str = data
    if rrtype in (RRType.NS, RRType.CNAME, RRType.PTR):
        rdata = Name.from_text(data)
    return RRset.from_records([ResourceRecord(name, rrtype, ttl, rdata)])


def apply_ops(cache: DifferentialCache, ops: tuple[Op, ...] | list[Op]) -> None:
    """Replay an op sequence; any divergence raises out of the cache.

    Opcodes (absolute virtual times throughout):

    * ``("put", owner, rrtype, ttl, rank, now, refresh, data)``
    * ``("get", owner, rrtype, now)``
    * ``("get_stale", owner, rrtype, now, max_stale)``
    * ``("put_negative", owner, rrtype, now, ttl[, verdict])``
    * ``("get_negative", owner, rrtype, now)``
    * ``("remove", owner, rrtype)``
    * ``("purge", now, older_than)``
    * ``("best_zone", qname, now, allow_stale)``
    * ``("counts", now)`` — query every occupancy figure
    * ``("check", now)`` — cache invariants plus a full-state audit
    """
    for op in ops:
        opcode = op[0]
        if opcode == "put":
            _, owner, rrtype, ttl, rank, now, refresh, data = op
            cache.put(make_rrset(owner, rrtype, ttl, data), rank, now,
                      refresh=refresh)
        elif opcode == "get":
            _, owner, rrtype, now = op
            cache.get(Name.from_text(owner), rrtype, now)
        elif opcode == "get_stale":
            _, owner, rrtype, now, max_stale = op
            cache.get_stale(Name.from_text(owner), rrtype, now, max_stale)
        elif opcode == "put_negative":
            _, owner, rrtype, now, ttl, *verdict = op
            cache.put_negative(Name.from_text(owner), rrtype, now, ttl,
                               *verdict)
        elif opcode == "get_negative":
            _, owner, rrtype, now = op
            cache.get_negative(Name.from_text(owner), rrtype, now)
        elif opcode == "remove":
            _, owner, rrtype = op
            cache.remove(Name.from_text(owner), rrtype)
        elif opcode == "purge":
            _, now, older_than = op
            cache.purge_expired(now, older_than)
        elif opcode == "best_zone":
            _, qname, now, allow_stale = op
            cache.best_zone_for(Name.from_text(qname), now,
                                allow_stale=allow_stale)
        elif opcode == "counts":
            (_, now) = op
            cache.live_entry_count(now)
            cache.live_record_count(now)
            cache.live_zone_count(now)
            cache.total_entry_count()
        elif opcode == "check":
            (_, now) = op
            check_cache_invariants(cache, now)
            cache.audit(now)
        else:
            raise ValueError(f"unknown opcode {opcode!r}")


@dataclass(frozen=True)
class CorpusCase:
    """One regression scenario: a cache shape plus an op sequence."""

    name: str
    rationale: str
    max_entries: int | None
    max_effective_ttl: float | None
    ops: tuple[Op, ...]


#: Each case reproduces one bug this subsystem flushed out; the oracle
#: implements the *fixed* semantics, so reintroducing the bug makes the
#: case diverge on the documented operation.
CORPUS: tuple[CorpusCase, ...] = (
    CorpusCase(
        name="lru-recency-on-refresh",
        rationale=(
            "a refresh/replace store must move the entry to the MRU end; "
            "the old in-place overwrite left it coldest and the next "
            "eviction dropped the entry that was just refreshed"
        ),
        max_entries=2,
        max_effective_ttl=None,
        ops=(
            ("put", "a.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            ("put", "b.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 1.0,
             False, "10.0.0.2"),
            # Refresh `a`: with the fix it becomes most recently used.
            ("put", "a.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 2.0,
             True, "10.0.0.1"),
            # Capacity eviction must now pick `b`, not the refreshed `a`.
            ("put", "c.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 3.0,
             False, "10.0.0.3"),
            ("get", "a.test.", RRType.A, 4.0),
            ("get", "b.test.", RRType.A, 4.0),
            ("check", 4.0),
        ),
    ),
    CorpusCase(
        name="lru-recency-on-dead-overwrite",
        rationale=(
            "overwriting an expired tombstone is a fresh store and must "
            "land at the MRU end on bounded caches"
        ),
        max_entries=2,
        max_effective_ttl=None,
        ops=(
            ("put", "a.test.", RRType.A, 1.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            ("put", "b.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 0.5,
             False, "10.0.0.2"),
            # `a` expired at t=1; restore it over its own tombstone.
            ("put", "a.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 2.0,
             False, "10.0.0.1"),
            ("put", "c.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 3.0,
             False, "10.0.0.3"),
            ("get", "a.test.", RRType.A, 4.0),
            ("check", 4.0),
        ),
    ),
    CorpusCase(
        name="negative-entries-in-totals",
        rationale=(
            "negative entries occupy memory and must show up in "
            "total_entry_count; the old count hid them"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            ("put_negative", "ghost.test.", RRType.A, 0.0, 30.0),
            ("counts", 1.0),
            ("get_negative", "ghost.test.", RRType.A, 1.0),
            ("check", 1.0),
        ),
    ),
    CorpusCase(
        name="negative-entries-purged",
        rationale=(
            "lapsed negative entries must be dropped by purge_expired "
            "instead of accumulating forever"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            ("put_negative", "ghost.test.", RRType.A, 0.0, 10.0),
            ("put_negative", "fresh.test.", RRType.MX, 0.0, 500.0),
            ("put", "live.test.", RRType.A, 5.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            # At t=100 the first negative and the tombstone are stale.
            ("purge", 100.0, 0.0),
            ("counts", 100.0),
            ("get_negative", "fresh.test.", RRType.MX, 100.0),
            ("check", 100.0),
        ),
    ),
    CorpusCase(
        name="stale-read-boundary",
        rationale=(
            "get_stale's max_stale bound is inclusive: a record exactly "
            "max_stale seconds past expiry is still served, one tick "
            "later it is not — the SWR grace window and the serve-stale "
            "comparator both lean on this edge"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            # Expires at t=10; stale reads probe the max_stale boundary.
            ("put", "edge.test.", RRType.A, 10.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            ("get", "edge.test.", RRType.A, 40.0),           # miss (lapsed)
            ("get_stale", "edge.test.", RRType.A, 40.0, 30.0),   # == bound
            ("get_stale", "edge.test.", RRType.A, 40.5, 30.0),   # > bound
            ("get_stale", "edge.test.", RRType.A, 40.0, 0.0),    # zero grace
            ("get_stale", "edge.test.", RRType.A, 10.0, 0.0),    # at expiry
            ("get_stale", "edge.test.", RRType.A, 500.0, None),  # unbounded
            ("check", 40.0),
        ),
    ),
    CorpusCase(
        name="invalidation-evict-shape",
        rationale=(
            "the decoupled update channel evicts a migrated zone's NS "
            "plus the glue it named; stale reads, best_zone and the "
            "counters must all agree the zone is gone"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            ("put", "z.test.", RRType.NS, 100.0, Rank.AUTH_AUTHORITY, 0.0,
             False, "ns1.z.test."),
            ("put", "ns1.z.test.", RRType.A, 100.0, Rank.ADDITIONAL, 0.0,
             False, "10.0.0.1"),
            ("best_zone", "host.z.test.", 1.0, False),
            # The invalidation: glue first, then the NS set (the order
            # CachingServer.handle_invalidation performs the eviction).
            ("remove", "ns1.z.test.", RRType.A),
            ("remove", "z.test.", RRType.NS),
            ("get_stale", "z.test.", RRType.NS, 2.0, None),
            ("best_zone", "host.z.test.", 2.0, True),
            ("counts", 2.0),
            ("check", 2.0),
        ),
    ),
    CorpusCase(
        name="negative-entries-removed",
        rationale=(
            "remove() must clear the negative verdict under the same key "
            "(after a delegation change the old NXDOMAIN is obsolete)"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            ("put", "host.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            ("put_negative", "host.test.", RRType.MX, 0.0, 1000.0),
            ("remove", "host.test.", RRType.MX),
            ("get_negative", "host.test.", RRType.MX, 1.0),
            ("counts", 1.0),
            ("check", 1.0),
        ),
    ),
    CorpusCase(
        name="negative-verdict-replayed",
        rationale=(
            "a negative entry holds NXDOMAIN or NODATA and must hand back "
            "the one it was filed with; the old bare-bool entry replayed "
            "every cached NODATA as NXDOMAIN (RFC 2308 keeps them apart)"
        ),
        max_entries=None,
        max_effective_ttl=None,
        ops=(
            ("put", "host.test.", RRType.A, 100.0, Rank.AUTH_ANSWER, 0.0,
             False, "10.0.0.1"),
            ("put_negative", "host.test.", RRType.MX, 0.0, 30.0,
             NegativeVerdict.NODATA),
            ("put_negative", "ghost.test.", RRType.A, 0.0, 30.0,
             NegativeVerdict.NXDOMAIN),
            ("get_negative", "host.test.", RRType.MX, 1.0),
            ("get_negative", "ghost.test.", RRType.A, 1.0),
            # A later verdict under the same key replaces the earlier.
            ("put_negative", "ghost.test.", RRType.A, 2.0, 30.0,
             NegativeVerdict.NODATA),
            ("get_negative", "ghost.test.", RRType.A, 3.0),
            ("check", 3.0),
            ("get_negative", "host.test.", RRType.MX, 30.0),
        ),
    ),
)


def run_corpus() -> int:
    """Replay every corpus case; returns the number of cases run."""
    for case in CORPUS:
        cache = DifferentialCache(
            max_effective_ttl=case.max_effective_ttl,
            max_entries=case.max_entries,
        )
        try:
            apply_ops(cache, case.ops)
        except ValidationError as err:
            raise type(err)(f"corpus case {case.name!r}: {err}") from err
    return len(CORPUS)


# -- renewal regression scenarios --------------------------------------------


def _renewal_rig(
    credit: float,
) -> tuple[SimulationEngine, DnsCache, RenewalManager, list[float]]:
    """An engine + cache + manager whose refetch re-offers the same NS.

    The refetch mimics the caching server's ingest of a same-rank,
    same-data response with ``refresh=False``: the put does not restart
    the TTL, so the cached expiry stays inside the renewal lead — the
    exact shape that used to leave the zone timerless with stranded
    credit ("silent drop").
    """
    engine = SimulationEngine()
    cache = DnsCache()
    calls: list[float] = []
    manager = RenewalManager(
        LRUPolicy(credit=credit), engine, cache,
        refetch=lambda zone, now: _refetch_same_data(cache, zone, now, calls),
    )
    return engine, cache, manager, calls


def _refetch_same_data(
    cache: DnsCache, zone: Name, now: float, calls: list[float]
) -> bool:
    calls.append(now)
    ns = make_rrset(str(zone), RRType.NS, 10.0, "ns1." + str(zone))
    cache.put(ns, Rank.AUTH_AUTHORITY, now, refresh=False)
    return True


def run_renewal_corpus() -> int:
    """Scripted renewal scenarios guarding the silent-drop fix.

    Returns the number of scenarios; raises
    :class:`~repro.validation.errors.InvariantViolation` when the
    renewal manager's post-conditions do not hold.
    """
    # Scenario 1: "successful" refetches that never move the expiry
    # forward must keep renewing (immediate rearm) until the credit is
    # spent, then lapse — never silently strand credit.
    engine, cache, manager, calls = _renewal_rig(credit=2.0)
    zone = Name.from_text("slow.test.")
    ns = make_rrset("slow.test.", RRType.NS, 10.0, "ns1.slow.test.")
    result = cache.put(ns, Rank.AUTH_AUTHORITY, engine.now, refresh=False)
    if result.expires_at is None:
        raise InvariantViolation("renewal rig: initial NS store rejected",
                                 check="renewal-scenario")
    manager.note_zone_use(zone, 10.0, engine.now)
    manager.note_irrs_cached(zone, result.expires_at)
    engine.run()
    check_renewal_invariants(manager, cache, now=engine.now + 100.0)
    if len(calls) != 2:
        raise InvariantViolation(
            f"renewal scenario short-ttl-rearm: expected 2 refetches "
            f"(one per credit), saw {len(calls)} — a successful refetch "
            f"that left the expiry inside the lead was dropped",
            check="renewal-silent-drop",
        )
    if manager.lapses != 1:
        raise InvariantViolation(
            f"renewal scenario short-ttl-rearm: expected exactly 1 lapse "
            f"after the credit ran out, saw {manager.lapses}",
            check="renewal-silent-drop",
        )

    # Scenario 2: a timer firing for an evicted zone cleans up quietly —
    # no lapse is counted and no credit is left behind.
    engine, cache, manager, _calls = _renewal_rig(credit=3.0)
    zone = Name.from_text("gone.test.")
    ns = make_rrset("gone.test.", RRType.NS, 10.0, "ns1.gone.test.")
    result = cache.put(ns, Rank.AUTH_AUTHORITY, engine.now, refresh=False)
    manager.note_zone_use(zone, 10.0, engine.now)
    manager.note_irrs_cached(zone, result.expires_at or 10.0)
    cache.remove(zone, RRType.NS)  # capacity eviction, no forget_zone
    engine.run()
    check_renewal_invariants(manager, cache, now=engine.now + 100.0)
    if manager.lapses != 0:
        raise InvariantViolation(
            f"renewal scenario evicted-zone: eviction must not count as "
            f"a lapse, saw lapses={manager.lapses}",
            check="renewal-eviction-lapse",
        )

    # Scenario 3: failed refetches land in renewals_failed so the
    # attempted == succeeded + failed identity is checkable.
    engine = SimulationEngine()
    cache = DnsCache()
    manager = RenewalManager(
        LRUPolicy(credit=3.0), engine, cache,
        refetch=lambda _zone, _now: False,
    )
    zone = Name.from_text("down.test.")
    ns = make_rrset("down.test.", RRType.NS, 10.0, "ns1.down.test.")
    result = cache.put(ns, Rank.AUTH_AUTHORITY, engine.now, refresh=False)
    manager.note_zone_use(zone, 10.0, engine.now)
    manager.note_irrs_cached(zone, result.expires_at or 10.0)
    engine.run()
    check_renewal_invariants(manager, cache, now=engine.now + 100.0)
    if (manager.renewals_attempted, manager.renewals_failed) != (1, 1):
        raise InvariantViolation(
            f"renewal scenario failed-refetch: expected attempted=1 "
            f"failed=1, saw attempted={manager.renewals_attempted} "
            f"failed={manager.renewals_failed}",
            check="renewal-accounting",
        )
    return 3


# -- the fuzzer ---------------------------------------------------------------


@dataclass(frozen=True)
class FuzzReport:
    """What a fuzz run covered."""

    rounds: int
    ops: int
    seed: int


_OWNERS = (
    "z1.test.", "z2.test.", "z3.test.",
    "h1.z1.test.", "h2.z1.test.", "h1.z2.test.",
    "h1.z3.test.", "deep.h1.z1.test.",
)
_ZONE_OWNERS = ("z1.test.", "z2.test.", "z3.test.")
_RRTYPES = (RRType.A, RRType.NS, RRType.AAAA, RRType.MX)
_TTLS = (0.5, 1.0, 5.0, 20.0, 60.0, 300.0)
_VERDICTS = tuple(NegativeVerdict)
_RANKS = (Rank.ADDITIONAL, Rank.NON_AUTH_AUTHORITY, Rank.AUTH_AUTHORITY,
          Rank.AUTH_ANSWER)
_A_DATA = ("10.0.0.1", "10.0.0.2")
_NS_DATA = ("ns1.glue.test.", "ns2.glue.test.")
_CAPACITIES = (None, 2, 3, 4, 6, 8)
_TTL_CAPS = (None, None, 50.0, 200.0)


def _random_op(rng: random.Random, now: float) -> Op:
    """One weighted random operation at (or slightly before) ``now``."""
    roll = rng.random()
    owner = rng.choice(_OWNERS)
    rrtype = rng.choice(_RRTYPES)
    # Occasional backwards-clock reads exercise the counters' linear
    # scan fallback (`_sync_counts` returning False).
    read_now = now - rng.uniform(0.0, 5.0) if rng.random() < 0.1 else now
    if roll < 0.35:
        data = rng.choice(_NS_DATA if rrtype == RRType.NS else _A_DATA)
        if rrtype == RRType.NS:
            owner = rng.choice(_ZONE_OWNERS)
        return ("put", owner, rrtype, rng.choice(_TTLS), rng.choice(_RANKS),
                now, rng.random() < 0.3, data)
    if roll < 0.60:
        return ("get", owner, rrtype, read_now)
    if roll < 0.66:
        # 0.0 pins the at-expiry edge; 5.0 sits inside typical TTL+grace
        # windows so the inclusive-boundary comparison is exercised.
        max_stale = rng.choice((None, 0.0, 1.0, 5.0, 30.0))
        return ("get_stale", owner, rrtype, read_now, max_stale)
    if roll < 0.72:
        return ("put_negative", owner, rrtype, now, rng.choice(_TTLS),
                rng.choice(_VERDICTS))
    if roll < 0.78:
        return ("get_negative", owner, rrtype, read_now)
    if roll < 0.84:
        return ("remove", owner, rrtype)
    if roll < 0.88:
        return ("purge", now, rng.choice((0.0, 10.0, 120.0)))
    if roll < 0.94:
        return ("best_zone", rng.choice(_OWNERS), read_now,
                rng.random() < 0.3)
    return ("counts", read_now)


def run_fuzz(
    rounds: int = 200,
    seed: int = 0,
    ops_per_round: int = 120,
) -> FuzzReport:
    """Fuzz the differential cache; raises on the first divergence.

    Each round draws a fresh cache shape (capacity, TTL cap) and op
    sequence from ``Random(seed * 1_000_003 + round)``, so a failure
    reported as "round R (seed S)" replays exactly.
    """
    total_ops = 0
    for round_index in range(rounds):
        round_seed = seed * 1_000_003 + round_index
        rng = random.Random(round_seed)
        cache = DifferentialCache(
            max_effective_ttl=rng.choice(_TTL_CAPS),
            max_entries=rng.choice(_CAPACITIES),
        )
        now = 0.0
        try:
            for op_index in range(ops_per_round):
                now += rng.choice((0.0, 0.5, 1.0, 3.0, 10.0, 30.0))
                apply_ops(cache, (_random_op(rng, now),))
                total_ops += 1
                if op_index % 20 == 19:
                    check_cache_invariants(cache, now)
            check_cache_invariants(cache, now)
            cache.audit(now)
        except ValidationError as err:
            raise type(err)(
                f"fuzz round {round_index} (seed {round_seed}): {err}"
            ) from err
    return FuzzReport(rounds=rounds, ops=total_ops, seed=seed)

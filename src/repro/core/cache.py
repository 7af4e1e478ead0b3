"""The caching server's RFC 2181-ranked TTL cache.

Semantics that matter for the paper:

* **Ranking** — data learned from a more trusted section may replace less
  trusted data (child-side IRRs replace parent-side referral copies);
  lower-ranked data never downgrades the cache.
* **The refresh switch** — when an equally-ranked copy with identical
  rdata arrives, a vanilla cache keeps the old countdown; with
  ``refresh=True`` the TTL restarts.  That single branch is the paper's
  "TTL refresh" scheme.
* **Expired entries are kept** (tombstones) so the simulator can measure
  Figure 3's expiry-to-next-use gaps and implement the serve-stale
  comparator; they are invisible to normal lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.dns.name import Name, name_for_id
from repro.dns.ranking import Rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRTYPE_BITS, RRType
from repro.obs.events import EventKind

if TYPE_CHECKING:
    from repro.obs.events import EventBus

_TYPE_MASK = (1 << RRTYPE_BITS) - 1
_NS_CODE = int(RRType.NS)


def cache_key(name: Name, rrtype: RRType) -> int:
    """Pack ``(name, rrtype)`` into the int key the cache stores under.

    Names carry a dense intern id (:attr:`~repro.dns.name.Name.iid`);
    the rrtype fits in the low ``RRTYPE_BITS`` bits.  Int keys hash and
    compare at C speed, which matters because every cache operation on
    the replay hot path builds one.
    """
    return (name.iid << RRTYPE_BITS) | int(rrtype)


def split_key(key: int) -> tuple[Name, RRType]:
    """Unpack a packed int key back to ``(name, rrtype)``.

    The inverse of :func:`cache_key`; used by validation audits and
    diagnostics, never on the hot path.
    """
    return (name_for_id(key >> RRTYPE_BITS), RRType(key & _TYPE_MASK))


@dataclass(slots=True)
class CacheEntry:
    """One cached RRset with its countdown and provenance."""

    rrset: RRset
    rank: Rank
    stored_at: float
    expires_at: float
    published_ttl: float
    """The TTL the authority published (pre-cap), for gap normalisation."""

    tainted: bool = field(default=False, compare=False)
    """Simulator ground truth: True when this entry came from a forged
    response (poison-dwell accounting; resolver behaviour never reads it)."""

    def is_live(self, now: float) -> bool:
        return now < self.expires_at

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)


class PutResult(NamedTuple):
    """What a ``put`` did, so callers can react (gap tracking, timers).

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    ``put``, and ``tuple.__new__`` fills all six fields in one C call
    where a frozen dataclass pays one ``object.__setattr__`` per field.
    The field order is part of the contract — ``put``'s early returns
    and the validation oracle build results positionally, and the
    differential cache compares the two with ``==``.
    """

    stored: bool
    """Whether the cache now holds the offered data (stored or refreshed)."""

    refreshed: bool
    """True when an existing live entry's TTL was restarted."""

    replaced_expired: bool
    """True when the put overwrote an entry that had already lapsed."""

    previous_expiry: float | None
    """Expiry of the overwritten entry (live or lapsed), if any."""

    previous_published_ttl: float | None
    """Published TTL of the overwritten entry, if any."""

    expires_at: float | None
    """The (possibly unchanged) expiry now in effect for the key."""


class NegativeVerdict(enum.Enum):
    """Which negative answer a negative entry holds (RFC 2308 §2).

    The two must replay as themselves: NXDOMAIN says the whole name is
    absent (a stub may drop every type under it), NODATA only that this
    type is.
    """

    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


class DnsCache:
    """TTL cache keyed by (owner name, rrtype).

    ``max_entries`` bounds capacity: when full, the least-recently-used
    *live* entry is evicted (expired tombstones go first).  None means
    unbounded, the paper's assumption — its §5.2.2 argues the absolute
    footprint is small enough that production caches never fill.
    """

    def __init__(
        self,
        max_effective_ttl: float | None = None,
        max_entries: int | None = None,
        harden_ranking: bool = False,
        protect_irrs: bool = False,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.harden_ranking = harden_ranking
        self.protect_irrs = protect_irrs
        # dict preserves insertion order; `_touch` re-inserts on use so
        # iteration order is LRU-first.  Keys are packed ints (see
        # `cache_key`), not (Name, RRType) tuples: the public API still
        # speaks Names, but storage and every hot lookup run on ints.
        self._entries: dict[int, CacheEntry] = {}
        self._negative: dict[int, tuple[float, NegativeVerdict]] = {}
        self.max_effective_ttl = max_effective_ttl
        self.max_entries = max_entries
        self.evictions = 0
        # Poison-dwell accounting (DESIGN.md §16): key -> (taint time,
        # rank stored at, rank of the live untainted entry it displaced,
        # if any).  Stays empty — and every guard on it false — unless a
        # tainted put arrives, so the clean hot path is unchanged.
        self._tainted: dict[int, tuple[float, Rank, Rank | None]] = {}
        self.poison_stored = 0
        self.poison_cured = 0
        self.poison_dwells: list[float] = []
        self._obs: "EventBus | None" = None

    def attach_observer(self, bus: "EventBus") -> None:
        """Route lookup/eviction events onto the observability bus.

        ``get`` is the hottest call in a replay, so rather than pay an
        inline ``is None`` guard on every lookup, the instrumented
        variant is rebound onto *this instance* only when a bus
        attaches — an unobserved cache keeps the original bytecode.
        """
        self._obs = bus
        self.get = self._observed_get  # type: ignore[method-assign]

    def _touch(self, key: int) -> None:
        entry = self._entries.pop(key)
        self._entries[key] = entry

    def _end_taint(self, key: int, end: float, cured: bool) -> None:
        """Close a tainted entry's dwell interval (if one is open)."""
        info = self._tainted.pop(key, None)
        if info is None:
            return
        self.poison_dwells.append(max(0.0, end - info[0]))
        if cured:
            self.poison_cured += 1

    def _make_room(self, now: float) -> None:
        """Evict until there is space for one more entry."""
        if self.max_entries is None or len(self._entries) < self.max_entries:
            return
        # Pass 1: drop expired tombstones (cheapest loss).
        doomed = [
            key for key, entry in self._entries.items()
            if not entry.is_live(now)
        ]
        obs = self._obs
        for key in doomed:
            if len(self._entries) < self.max_entries:
                break
            entry = self._entries.pop(key)
            if self._tainted:
                self._end_taint(key, min(now, entry.expires_at), cured=False)
            self.evictions += 1
            if obs is not None:
                name, rrtype = split_key(key)
                obs.emit(EventKind.CACHE_EVICTED, now,
                         name=str(name), rrtype=rrtype.name, live=False)
        # Pass 2: evict live entries, LRU first.  Under ``protect_irrs``
        # (budget-aware admission, the flash-crowd defense) live NS sets
        # are spared while any non-IRR entry remains: a request surge
        # then churns host records instead of the infrastructure records
        # the paper's schemes exist to preserve.
        while len(self._entries) >= self.max_entries:
            oldest_key = next(iter(self._entries))
            if self.protect_irrs and oldest_key & _TYPE_MASK == _NS_CODE:
                oldest_key = next(
                    (key for key in self._entries
                     if key & _TYPE_MASK != _NS_CODE),
                    oldest_key,
                )
            del self._entries[oldest_key]
            if self._tainted:
                self._end_taint(oldest_key, now, cured=False)
            self.evictions += 1
            if obs is not None:
                name, rrtype = split_key(oldest_key)
                obs.emit(EventKind.CACHE_EVICTED, now,
                         name=str(name), rrtype=rrtype.name, live=True)

    # -- positive entries ---------------------------------------------------

    def put(
        self,
        rrset: RRset,
        rank: Rank,
        now: float,
        refresh: bool = False,
        taint: bool = False,
    ) -> PutResult:
        """Offer an RRset to the cache under RFC 2181 ranking.

        Args:
            rrset: the data as heard (TTL = published TTL).
            rank: trust of the section it was heard in.
            now: virtual time.
            refresh: allow a same-rank same-rdata copy to restart the TTL
                (the paper's refresh scheme; only IRR puts pass True).
            taint: simulator ground truth — the data came from a forged
                response.  Ranking treats it identically (the resolver
                cannot know); the cache only *accounts* it, for
                poison-dwell measurement.
        """
        key = rrset._ikey
        existing = self._entries.get(key)
        if (
            existing is not None
            and existing.rrset is rrset
            and rank == existing.rank
            and existing.expires_at > now
        ):
            # Identity fast paths: zone responses are cached and
            # re-served, so the vast majority of puts re-offer the *same
            # object* at the same rank against a live entry.  same_data
            # is trivially true and equal rank always may_replace, which
            # pins down both slow-path outcomes exactly:
            if not refresh:
                # ...without refresh it is a no-op, not stored.
                return PutResult(False, False, False, existing.expires_at,
                                 existing.published_ttl, existing.expires_at)
            # ...with refresh the slow path would rebuild an identical
            # entry with a restarted countdown (published_ttl is
            # unchanged: it came from this very rrset object).  Restart
            # it in place instead of allocating.
            ttl = rrset.ttl
            cap = self.max_effective_ttl
            if cap is not None and ttl > cap:
                ttl = cap
            previous_expiry = existing.expires_at
            new_expiry = now + ttl
            if self.max_entries is not None:
                # Keep the pop-then-set MRU rule of the slow path.
                del self._entries[key]
                self._entries[key] = existing
            existing.stored_at = now
            existing.expires_at = new_expiry
            return PutResult(True, True, False, previous_expiry,
                             existing.published_ttl, new_expiry)
        ttl = rrset.ttl
        if self.max_effective_ttl is not None:
            ttl = min(ttl, self.max_effective_ttl)
        new_expiry = now + ttl

        if existing is None or not existing.is_live(now):
            replaced_expired = existing is not None
            if existing is None:
                self._make_room(now)
            elif self.max_entries is not None:
                # Pop-then-set so the overwrite lands at the MRU end of
                # the insertion-ordered dict; a plain `[key] =` keeps the
                # stale position and `_make_room` would evict the entry
                # we just rewrote before genuinely colder ones.
                del self._entries[key]
            entry = CacheEntry(
                rrset=rrset,
                rank=rank,
                stored_at=now,
                expires_at=new_expiry,
                published_ttl=rrset.ttl,
            )
            self._entries[key] = entry
            if taint or self._tainted:
                if existing is not None:
                    # A tainted tombstone's dwell ended at its expiry.
                    self._end_taint(key, existing.expires_at, cured=False)
                if taint:
                    entry.tainted = True
                    self._tainted[key] = (now, rank, None)
                    self.poison_stored += 1
            return PutResult(
                stored=True,
                refreshed=False,
                replaced_expired=replaced_expired,
                previous_expiry=existing.expires_at if existing else None,
                previous_published_ttl=(
                    existing.published_ttl if existing else None
                ),
                expires_at=new_expiry,
            )

        if not rank.may_replace(existing.rank):
            return PutResult(False, False, False, existing.expires_at,
                             existing.published_ttl, existing.expires_at)

        same_data = existing.rrset.same_data(rrset)
        if self.harden_ranking and not same_data and rank == existing.rank:
            # Hardened ingestion (DESIGN.md §16): different rdata at
            # merely equal rank cannot displace a live entry, so an
            # off-path forgery cannot overwrite a cached answer before
            # it expires.  Applies to every put — the resolver cannot
            # know which responses are forged.
            return PutResult(False, False, False, existing.expires_at,
                             existing.published_ttl, existing.expires_at)
        if same_data and rank == existing.rank and not refresh:
            # Vanilla behaviour: an identical copy does NOT restart the
            # countdown.  This branch *is* the difference the paper's
            # refresh scheme removes.
            return PutResult(False, False, False, existing.expires_at,
                             existing.published_ttl, existing.expires_at)

        previous_expiry = existing.expires_at
        previous_ttl = existing.published_ttl
        if self.max_entries is not None:
            # Same pop-then-set recency rule for replace/refresh stores.
            del self._entries[key]
        entry = CacheEntry(
            rrset=rrset,
            rank=rank,
            stored_at=now,
            expires_at=new_expiry,
            published_ttl=rrset.ttl,
        )
        self._entries[key] = entry
        if taint or self._tainted:
            # Only a *different-data* overwrite of live untainted data
            # counts as displacement (a same-data forgery changes what a
            # client would see not at all).
            displaced = (
                None if existing.tainted or same_data else existing.rank
            )
            # Overwriting a live tainted entry ends its dwell; an
            # untainted overwrite is the cure.
            self._end_taint(key, now, cured=not taint)
            if taint:
                entry.tainted = True
                self._tainted[key] = (now, rank, displaced)
                self.poison_stored += 1
        return PutResult(
            stored=True,
            refreshed=same_data,
            replaced_expired=False,
            previous_expiry=previous_expiry,
            previous_published_ttl=previous_ttl,
            expires_at=new_expiry,
        )

    def get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        """The live RRset for (name, type), or None."""
        key = (name.iid << RRTYPE_BITS) | rrtype
        entry = self._entries.get(key)
        # `entry.is_live(now)` inlined: this is the hottest call in a
        # replay and the method dispatch is measurable.
        if entry is None or entry.expires_at <= now:
            return None
        if self.max_entries is not None:
            self._touch(key)
        return entry.rrset

    def _observed_get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        """``get`` with event emission; bound in by :meth:`attach_observer`."""
        key = (name.iid << RRTYPE_BITS) | rrtype
        entry = self._entries.get(key)
        obs = self._obs
        if entry is None:
            if obs is not None:
                obs.emit(EventKind.CACHE_MISS, now,
                         name=str(name), rrtype=rrtype.name)
            return None
        if entry.expires_at <= now:
            if obs is not None:
                obs.emit(EventKind.CACHE_EXPIRED, now,
                         name=str(name), rrtype=rrtype.name,
                         expired_at=entry.expires_at)
            return None
        if obs is not None:
            obs.emit(EventKind.CACHE_HIT, now,
                     name=str(name), rrtype=rrtype.name,
                     remaining=entry.expires_at - now)
        if self.max_entries is not None:
            self._touch(key)
        return entry.rrset

    def get_stale(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        max_stale: float | None = None,
    ) -> RRset | None:
        """The RRset even if expired (serve-stale comparator); None if unknown.

        ``max_stale`` bounds how long past expiry an entry may still be
        served: entries that lapsed more than ``max_stale`` seconds before
        ``now`` are treated as unknown.  None (the default) serves
        arbitrarily stale data, the unbounded comparator from related
        work.
        """
        entry = self._entries.get(cache_key(name, rrtype))
        if entry is None:
            return None
        if max_stale is not None and now - entry.expires_at > max_stale:
            return None
        return entry.rrset

    def entry(self, name: Name, rrtype: RRType) -> CacheEntry | None:
        """Raw entry access (live or lapsed) for instrumentation."""
        return self._entries.get(cache_key(name, rrtype))

    def expires_at(self, name: Name, rrtype: RRType, now: float) -> float | None:
        """Expiry time of the live entry for (name, type), else None."""
        entry = self._entries.get(cache_key(name, rrtype))
        if entry is None or not entry.is_live(now):
            return None
        return entry.expires_at

    def remove(self, name: Name, rrtype: RRType) -> bool:
        """Drop an entry outright (used by delegation-change handling).

        Clears both the positive entry and any negative entry under the
        same key: after a delegation change the old NXDOMAIN/NODATA
        verdict is just as obsolete as the old data.
        """
        key = cache_key(name, rrtype)
        removed_negative = self._negative.pop(key, None) is not None
        if self._entries.pop(key, None) is None:
            return removed_negative
        if self._tainted and self._tainted.pop(key, None) is not None:
            # Removal has no timestamp, so no dwell sample — but the
            # poison is gone, which counts as a cure (delegation resets
            # evict the forged copy along with the stale IRRs).
            self.poison_cured += 1
        return True

    # -- negative entries ------------------------------------------------------

    def put_negative(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        ttl: float,
        verdict: NegativeVerdict = NegativeVerdict.NXDOMAIN,
    ) -> None:
        """Cache a negative answer for ``ttl`` seconds.

        ``verdict`` says which one — the name does not exist, or it
        exists without this type — and is what :meth:`get_negative`
        hands back while the entry lives; a later put under the same
        key replaces both the verdict and the countdown.
        """
        self._negative[(name.iid << RRTYPE_BITS) | rrtype] = (now + ttl, verdict)

    def get_negative(
        self, name: Name, rrtype: RRType, now: float
    ) -> NegativeVerdict | None:
        """The verdict of the live negative entry for (name, type), or None.

        Both verdicts are truthy, so ``if cache.get_negative(...)`` still
        reads "is a negative answer cached"; a caller that answers from
        the entry must replay the verdict it holds, not assume NXDOMAIN.
        """
        held = self._negative.get((name.iid << RRTYPE_BITS) | rrtype)
        if held is None or now >= held[0]:
            return None
        return held[1]

    # -- zone-oriented views -----------------------------------------------------

    def zone_ns_expiry(self, zone: Name, now: float) -> float | None:
        """When ``zone``'s cached NS set expires (None if absent/lapsed)."""
        return self.expires_at(zone, RRType.NS, now)

    def best_zone_for(
        self,
        qname: Name,
        now: float,
        exclude: frozenset[Name] | set[Name] = frozenset(),
        allow_stale: bool = False,
    ) -> Name | None:
        """The deepest ancestor zone of ``qname`` with usable cached NS.

        Returns None when nothing below the root is cached (the caller
        falls back to root hints).  ``allow_stale`` admits lapsed NS sets,
        for the serve-stale comparator.
        """
        entries = self._entries
        for ancestor, ns_key in qname.ns_chain():
            if ancestor in exclude:
                continue
            entry = entries.get(ns_key)
            if entry is None:
                continue
            if entry.expires_at > now or allow_stale:
                return ancestor
        return None

    # -- occupancy -----------------------------------------------------------------

    def live_entry_count(self, now: float) -> int:
        """Number of live RRset entries."""
        return sum(1 for entry in self._entries.values() if entry.is_live(now))

    def live_record_count(self, now: float) -> int:
        """Number of live individual records (Figure 12's currency)."""
        return sum(
            len(entry.rrset)
            for entry in self._entries.values()
            if entry.is_live(now)
        )

    def live_zone_count(self, now: float) -> int:
        """Zones whose NS set is currently live (Figure 12's zone series)."""
        return sum(
            1
            for key, entry in self._entries.items()
            if key & _TYPE_MASK == _NS_CODE and entry.is_live(now)
        )

    def poison_stats(self, now: float) -> tuple[int, int, list[float]]:
        """``(stored, cured, dwell samples)`` for poison accounting.

        Dwell samples include a provisional interval for every entry
        still tainted at ``now`` (clipped at the entry's expiry), so the
        statistics are complete at any observation point.  Non-mutating.
        """
        dwells = list(self.poison_dwells)
        for key, (taint_time, _rank, _displaced) in self._tainted.items():
            entry = self._entries.get(key)
            end = now if entry is None else min(now, entry.expires_at)
            dwells.append(max(0.0, end - taint_time))
        return self.poison_stored, self.poison_cured, dwells

    def tainted_entries(self) -> "dict[int, tuple[float, Rank, Rank | None]]":
        """The open taint registry (validation / diagnostics view)."""
        return dict(self._tainted)

    def total_entry_count(self) -> int:
        """All entries including tombstones and negative entries
        (memory-footprint accounting)."""
        return len(self._entries) + len(self._negative)

    def purge_expired(self, now: float, older_than: float = 0.0) -> int:
        """Drop tombstones that lapsed more than ``older_than`` seconds ago.

        The simulator keeps tombstones for gap measurement; long runs may
        call this periodically to bound memory.  Lapsed negative entries
        are purged under the same rule — they are useless once expired
        and would otherwise accumulate forever.  Returns entries removed
        (positive + negative).
        """
        doomed = [
            key
            for key, entry in self._entries.items()
            if entry.expires_at + older_than <= now
        ]
        for key in doomed:
            entry = self._entries.pop(key)
            if self._tainted:
                self._end_taint(key, min(now, entry.expires_at), cured=False)
        doomed_negative = [
            key
            for key, (expiry, _verdict) in self._negative.items()
            if expiry + older_than <= now
        ]
        for key in doomed_negative:
            del self._negative[key]
        return len(doomed) + len(doomed_negative)

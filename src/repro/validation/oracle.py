"""A deliberately naive reference model of :class:`~repro.core.cache.DnsCache`.

The production cache earns its speed with packed int keys, an
identity fast path in ``put``, dict-order LRU tricks and method
rebinding.  Every one of those optimisations is a place where a bug can
hide.  :class:`OracleCache` reimplements the *semantics* with none of
the machinery:

* storage is a plain list scanned linearly on every call;
* recency is the list order itself (index 0 is coldest);
* every occupancy figure is recomputed from scratch, every time;
* there is no observer fast path and no identity fast path.

The code is meant to be checkable by eye against the documented cache
contract.  :class:`~repro.validation.differential.DifferentialCache`
drives this model in lockstep with the real one and flags the first
disagreement.

The oracle intentionally shares the public *types* of the real cache
(:class:`PutResult`, ranks, RRsets) — only the logic is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import NegativeVerdict, PutResult
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRType

Key = tuple[Name, RRType]


@dataclass(slots=True)
class OracleEntry:
    """One cached RRset; field-compatible with ``CacheEntry``."""

    rrset: RRset
    rank: Rank
    stored_at: float
    expires_at: float
    published_ttl: float
    tainted: bool = False

    def is_live(self, now: float) -> bool:
        return now < self.expires_at


class OracleCache:
    """Linear-scan reference implementation of the DnsCache contract."""

    def __init__(
        self,
        max_effective_ttl: float | None = None,
        max_entries: int | None = None,
        harden_ranking: bool = False,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_effective_ttl = max_effective_ttl
        self.max_entries = max_entries
        self.harden_ranking = harden_ranking
        self.evictions = 0
        # Recency-ordered store: index 0 is the least recently used.
        self._store: list[tuple[Key, OracleEntry]] = []
        # Negative entries as (key, (expiry, verdict)) pairs,
        # insertion-ordered.
        self._negatives: list[tuple[Key, tuple[float, NegativeVerdict]]] = []

    # -- linear-scan helpers --------------------------------------------------

    def _index_of(self, key: Key) -> int | None:
        for index, (stored_key, _) in enumerate(self._store):
            if stored_key == key:
                return index
        return None

    def _find(self, key: Key) -> OracleEntry | None:
        index = self._index_of(key)
        if index is None:
            return None
        return self._store[index][1]

    def _negative_index_of(self, key: Key) -> int | None:
        for index, (stored_key, _) in enumerate(self._negatives):
            if stored_key == key:
                return index
        return None

    def _delete(self, key: Key) -> None:
        index = self._index_of(key)
        if index is not None:
            del self._store[index]

    def _make_room(self, now: float) -> None:
        if self.max_entries is None or len(self._store) < self.max_entries:
            return
        # Pass 1: drop expired tombstones, coldest first.
        doomed = [
            key for key, entry in list(self._store) if not entry.is_live(now)
        ]
        for key in doomed:
            if len(self._store) < self.max_entries:
                break
            self._delete(key)
            self.evictions += 1
        # Pass 2: evict live entries, LRU (front of the list) first.
        while len(self._store) >= self.max_entries:
            del self._store[0]
            self.evictions += 1

    # -- positive entries -----------------------------------------------------

    def put(
        self,
        rrset: RRset,
        rank: Rank,
        now: float,
        refresh: bool = False,
        taint: bool = False,
    ) -> PutResult:
        key = rrset.key()
        ttl = rrset.ttl
        if self.max_effective_ttl is not None:
            ttl = min(ttl, self.max_effective_ttl)
        new_expiry = now + ttl
        existing = self._find(key)

        if existing is None or not existing.is_live(now):
            replaced_expired = existing is not None
            if existing is None:
                self._make_room(now)
            else:
                # Overwriting a tombstone is a fresh store: the entry
                # moves to the most-recently-used end.
                self._delete(key)
            self._store.append((key, OracleEntry(
                rrset=rrset,
                rank=rank,
                stored_at=now,
                expires_at=new_expiry,
                published_ttl=rrset.ttl,
                tainted=taint,
            )))
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
            # Hardened ingestion: equal rank may not replace different
            # live data (mirrors the real cache's poisoning defense).
            return PutResult(False, False, False, existing.expires_at,
                             existing.published_ttl, existing.expires_at)
        if same_data and rank == existing.rank and not refresh:
            # Vanilla cache: an identical copy does not restart the TTL.
            return PutResult(False, False, False, existing.expires_at,
                             existing.published_ttl, existing.expires_at)

        previous_expiry = existing.expires_at
        previous_ttl = existing.published_ttl
        self._delete(key)
        self._store.append((key, OracleEntry(
            rrset=rrset,
            rank=rank,
            stored_at=now,
            expires_at=new_expiry,
            published_ttl=rrset.ttl,
            tainted=taint,
        )))
        return PutResult(
            stored=True,
            refreshed=same_data,
            replaced_expired=False,
            previous_expiry=previous_expiry,
            previous_published_ttl=previous_ttl,
            expires_at=new_expiry,
        )

    def get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        key = (name, rrtype)
        entry = self._find(key)
        if entry is None or not entry.is_live(now):
            return None
        if self.max_entries is not None:
            # A hit refreshes recency on bounded caches only, exactly as
            # the real cache only `_touch`es when eviction exists.
            self._delete(key)
            self._store.append((key, entry))
        return entry.rrset

    def get_stale(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        max_stale: float | None = None,
    ) -> RRset | None:
        entry = self._find((name, rrtype))
        if entry is None:
            return None
        if max_stale is not None and now - entry.expires_at > max_stale:
            return None
        return entry.rrset

    def entry(self, name: Name, rrtype: RRType) -> OracleEntry | None:
        return self._find((name, rrtype))

    def expires_at(self, name: Name, rrtype: RRType, now: float) -> float | None:
        entry = self._find((name, rrtype))
        if entry is None or not entry.is_live(now):
            return None
        return entry.expires_at

    def remove(self, name: Name, rrtype: RRType) -> bool:
        key = (name, rrtype)
        removed_negative = False
        negative_index = self._negative_index_of(key)
        if negative_index is not None:
            del self._negatives[negative_index]
            removed_negative = True
        index = self._index_of(key)
        if index is None:
            return removed_negative
        del self._store[index]
        return True

    # -- negative entries -----------------------------------------------------

    def put_negative(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        ttl: float,
        verdict: NegativeVerdict = NegativeVerdict.NXDOMAIN,
    ) -> None:
        key = (name, rrtype)
        held = (now + ttl, verdict)
        index = self._negative_index_of(key)
        if index is None:
            self._negatives.append((key, held))
        else:
            self._negatives[index] = (key, held)

    def get_negative(
        self, name: Name, rrtype: RRType, now: float
    ) -> NegativeVerdict | None:
        index = self._negative_index_of((name, rrtype))
        if index is None:
            return None
        expiry, verdict = self._negatives[index][1]
        return verdict if now < expiry else None

    # -- zone-oriented views --------------------------------------------------

    def zone_ns_expiry(self, zone: Name, now: float) -> float | None:
        return self.expires_at(zone, RRType.NS, now)

    def best_zone_for(
        self,
        qname: Name,
        now: float,
        exclude: frozenset[Name] | set[Name] = frozenset(),
        allow_stale: bool = False,
    ) -> Name | None:
        for ancestor in qname.ancestors():
            if ancestor.is_root:
                return None
            if ancestor in exclude:
                continue
            entry = self._find((ancestor, RRType.NS))
            if entry is None:
                continue
            if entry.is_live(now) or allow_stale:
                return ancestor
        return None

    # -- occupancy ------------------------------------------------------------

    def live_entry_count(self, now: float) -> int:
        return sum(1 for _, entry in self._store if entry.is_live(now))

    def live_record_count(self, now: float) -> int:
        return sum(
            len(entry.rrset)
            for _, entry in self._store
            if entry.is_live(now)
        )

    def live_zone_count(self, now: float) -> int:
        return sum(
            1
            for (_, rrtype), entry in self._store
            if rrtype == RRType.NS and entry.is_live(now)
        )

    def total_entry_count(self) -> int:
        return len(self._store) + len(self._negatives)

    def purge_expired(self, now: float, older_than: float = 0.0) -> int:
        doomed = [
            key
            for key, entry in list(self._store)
            if entry.expires_at + older_than <= now
        ]
        for key in doomed:
            self._delete(key)
        doomed_negative = [
            key
            for key, (expiry, _verdict) in list(self._negatives)
            if expiry + older_than <= now
        ]
        for key in doomed_negative:
            index = self._negative_index_of(key)
            if index is not None:
                del self._negatives[index]
        return len(doomed) + len(doomed_negative)

    # -- full-state census (for audits) ---------------------------------------

    def snapshot_keys(self) -> list[Key]:
        """Every positive key (live and tombstone), unsorted."""
        return [key for key, _ in self._store]

    def snapshot_negatives(self) -> dict[Key, tuple[float, NegativeVerdict]]:
        """Every negative entry's ``(expiry, verdict)``, keyed."""
        return dict(self._negatives)

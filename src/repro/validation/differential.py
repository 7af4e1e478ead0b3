"""Lockstep differential driver: optimised cache vs naive oracle.

:class:`DifferentialCache` *is* a :class:`~repro.core.cache.DnsCache`
(it subclasses it, so the production hot paths and state are the ones
actually exercised) that additionally owns an
:class:`~repro.validation.oracle.OracleCache` and mirrors every public
operation into it.  After each call the two results — and, on mutating
operations, the occupancy figures — are compared; the first
disagreement raises :class:`~repro.validation.errors.DivergenceError`
naming the operation.

Plugging it into a real replay is a one-line swap (the
``validation=True`` knob on :class:`~repro.core.caching_server
.CachingServer` and on :class:`~repro.experiments.parallel.ReplaySpec`),
which turns a whole simulated week of traffic into a differential test.

Implementation notes:

* Overridden methods call ``DnsCache.method(self, ...)`` explicitly, so
  a test can monkeypatch a method on ``DnsCache`` to re-inject a fixed
  bug and prove the differential layer catches it.
* ``attach_observer`` deliberately does **not** rebind ``self.get`` the
  way the base class does — the rebound method would bypass the
  comparison.  The differential ``get`` dispatches to the observed
  variant itself when a bus is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.cache import (
    CacheEntry,
    DnsCache,
    NegativeVerdict,
    PutResult,
    cache_key,
    split_key,
)
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRType
from repro.validation.errors import DivergenceError
from repro.validation.oracle import OracleCache, OracleEntry

if TYPE_CHECKING:
    from repro.obs.events import EventBus


def _entry_fields(
    entry: "CacheEntry | OracleEntry | None",
) -> tuple[RRset, Rank, float, float, float, bool] | None:
    if entry is None:
        return None
    return (
        entry.rrset,
        entry.rank,
        entry.stored_at,
        entry.expires_at,
        entry.published_ttl,
        entry.tainted,
    )


class DifferentialCache(DnsCache):
    """A DnsCache that shadows every operation into an OracleCache."""

    def __init__(
        self,
        max_effective_ttl: float | None = None,
        max_entries: int | None = None,
        harden_ranking: bool = False,
    ) -> None:
        super().__init__(
            max_effective_ttl, max_entries, harden_ranking=harden_ranking,
        )
        self._oracle = OracleCache(
            max_effective_ttl=max_effective_ttl, max_entries=max_entries,
            harden_ranking=harden_ranking,
        )
        self.op_index = 0
        self.ops_checked = 0

    @property
    def oracle(self) -> OracleCache:
        return self._oracle

    # -- comparison plumbing --------------------------------------------------

    def _diverged(self, op: str, primary: object, oracle: object) -> None:
        raise DivergenceError(
            f"op #{self.op_index} {op}: primary={primary!r} oracle={oracle!r}",
            op=op,
            op_index=self.op_index,
            primary=primary,
            oracle=oracle,
        )

    def _compare(self, op: str, primary: object, oracle: object) -> None:
        self.ops_checked += 1
        if primary != oracle:
            self._diverged(op, primary, oracle)

    def _compare_occupancy(self, op: str, now: float | None) -> None:
        oracle = self._oracle
        primary_total = DnsCache.total_entry_count(self)
        self._compare(f"{op} [total_entry_count]",
                      primary_total, oracle.total_entry_count())
        self._compare(f"{op} [evictions]", self.evictions, oracle.evictions)
        if now is None:
            return
        self._compare(f"{op} [live_entry_count]",
                      DnsCache.live_entry_count(self, now),
                      oracle.live_entry_count(now))
        self._compare(f"{op} [live_record_count]",
                      DnsCache.live_record_count(self, now),
                      oracle.live_record_count(now))
        self._compare(f"{op} [live_zone_count]",
                      DnsCache.live_zone_count(self, now),
                      oracle.live_zone_count(now))

    # -- observer handling ----------------------------------------------------

    def attach_observer(self, bus: "EventBus") -> None:
        # No method rebinding here (unlike the base class): the rebound
        # fast path would skip the oracle comparison entirely.
        self._obs = bus

    # -- shadowed operations --------------------------------------------------

    def put(
        self,
        rrset: RRset,
        rank: Rank,
        now: float,
        refresh: bool = False,
        taint: bool = False,
    ) -> PutResult:
        self.op_index += 1
        op = (f"put({rrset.name}/{rrset.rrtype.name}, rank={rank.name}, "
              f"now={now:g}, refresh={refresh}, taint={taint})")
        primary = DnsCache.put(self, rrset, rank, now, refresh, taint)
        oracle = self._oracle.put(rrset, rank, now, refresh=refresh,
                                  taint=taint)
        self._compare(op, primary, oracle)
        self._compare_occupancy(op, now)
        return primary

    def get(self, name: Name, rrtype: RRType, now: float) -> RRset | None:
        self.op_index += 1
        if self._obs is not None:
            primary = DnsCache._observed_get(self, name, rrtype, now)
        else:
            primary = DnsCache.get(self, name, rrtype, now)
        oracle = self._oracle.get(name, rrtype, now)
        self._compare(f"get({name}/{rrtype.name}, now={now:g})",
                      primary, oracle)
        return primary

    def get_stale(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        max_stale: float | None = None,
    ) -> RRset | None:
        self.op_index += 1
        primary = DnsCache.get_stale(self, name, rrtype, now, max_stale)
        oracle = self._oracle.get_stale(name, rrtype, now, max_stale)
        self._compare(
            f"get_stale({name}/{rrtype.name}, now={now:g}, "
            f"max_stale={max_stale})",
            primary, oracle,
        )
        return primary

    def entry(self, name: Name, rrtype: RRType) -> CacheEntry | None:
        self.op_index += 1
        primary = DnsCache.entry(self, name, rrtype)
        oracle = self._oracle.entry(name, rrtype)
        self._compare(f"entry({name}/{rrtype.name})",
                      _entry_fields(primary), _entry_fields(oracle))
        return primary

    def expires_at(self, name: Name, rrtype: RRType, now: float) -> float | None:
        self.op_index += 1
        primary = DnsCache.expires_at(self, name, rrtype, now)
        oracle = self._oracle.expires_at(name, rrtype, now)
        self._compare(f"expires_at({name}/{rrtype.name}, now={now:g})",
                      primary, oracle)
        return primary

    def remove(self, name: Name, rrtype: RRType) -> bool:
        self.op_index += 1
        op = f"remove({name}/{rrtype.name})"
        primary = DnsCache.remove(self, name, rrtype)
        oracle = self._oracle.remove(name, rrtype)
        self._compare(op, primary, oracle)
        self._compare_occupancy(op, None)
        return primary

    def put_negative(
        self,
        name: Name,
        rrtype: RRType,
        now: float,
        ttl: float,
        verdict: NegativeVerdict = NegativeVerdict.NXDOMAIN,
    ) -> None:
        self.op_index += 1
        op = (f"put_negative({name}/{rrtype.name}, now={now:g}, ttl={ttl:g}, "
              f"verdict={verdict.name})")
        DnsCache.put_negative(self, name, rrtype, now, ttl, verdict)
        self._oracle.put_negative(name, rrtype, now, ttl, verdict)
        self._compare_occupancy(op, now)

    def get_negative(
        self, name: Name, rrtype: RRType, now: float
    ) -> NegativeVerdict | None:
        self.op_index += 1
        primary = DnsCache.get_negative(self, name, rrtype, now)
        oracle = self._oracle.get_negative(name, rrtype, now)
        self._compare(f"get_negative({name}/{rrtype.name}, now={now:g})",
                      primary, oracle)
        return primary

    def best_zone_for(
        self,
        qname: Name,
        now: float,
        exclude: frozenset[Name] | set[Name] = frozenset(),
        allow_stale: bool = False,
    ) -> Name | None:
        self.op_index += 1
        primary = DnsCache.best_zone_for(self, qname, now, exclude, allow_stale)
        oracle = self._oracle.best_zone_for(qname, now, exclude, allow_stale)
        self._compare(
            f"best_zone_for({qname}, now={now:g}, allow_stale={allow_stale})",
            primary, oracle,
        )
        return primary

    def live_entry_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_entry_count(self, now)
        self._compare(f"live_entry_count(now={now:g})",
                      primary, self._oracle.live_entry_count(now))
        return primary

    def live_record_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_record_count(self, now)
        self._compare(f"live_record_count(now={now:g})",
                      primary, self._oracle.live_record_count(now))
        return primary

    def live_zone_count(self, now: float) -> int:
        self.op_index += 1
        primary = DnsCache.live_zone_count(self, now)
        self._compare(f"live_zone_count(now={now:g})",
                      primary, self._oracle.live_zone_count(now))
        return primary

    def total_entry_count(self) -> int:
        self.op_index += 1
        primary = DnsCache.total_entry_count(self)
        self._compare("total_entry_count()",
                      primary, self._oracle.total_entry_count())
        return primary

    def purge_expired(self, now: float, older_than: float = 0.0) -> int:
        self.op_index += 1
        op = f"purge_expired(now={now:g}, older_than={older_than:g})"
        primary = DnsCache.purge_expired(self, now, older_than)
        oracle = self._oracle.purge_expired(now, older_than)
        self._compare(op, primary, oracle)
        self._compare_occupancy(op, now)
        return primary

    # -- full-state audit -----------------------------------------------------

    def audit(self, now: float) -> None:
        """Census both models completely; raise on *any* state mismatch.

        Called at the end of a fuzz round or replay; unlike the per-op
        comparisons this also checks keys that no operation touched
        recently.
        """
        oracle = self._oracle
        # The primary stores packed int keys (see `cache_key`); decode to
        # (Name, RRType) pairs so the comparison speaks the oracle's
        # vocabulary — a packing bug then shows up as a key mismatch.
        primary_keys = sorted(split_key(k) for k in self._entries)
        oracle_keys = sorted(oracle.snapshot_keys())
        if primary_keys != oracle_keys:
            only_primary = [k for k in primary_keys if k not in oracle_keys]
            only_oracle = [k for k in oracle_keys if k not in primary_keys]
            self._diverged(
                "audit [stored keys]",
                f"extra={only_primary}", f"extra={only_oracle}",
            )
        for key in primary_keys:
            self._compare(
                f"audit [entry {key[0]}/{key[1].name}]",
                _entry_fields(self._entries[cache_key(*key)]),
                _entry_fields(oracle.entry(*key)),
            )
        self._compare(
            "audit [negative entries]",
            {split_key(k): held for k, held in self._negative.items()},
            oracle.snapshot_negatives(),
        )
        self._compare_occupancy("audit", now)

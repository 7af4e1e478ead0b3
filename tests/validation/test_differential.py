"""Bug-reinjection proofs: every fixed bug, reintroduced, must be caught.

``DifferentialCache`` calls ``DnsCache.method(self, ...)`` explicitly so
these tests can monkeypatch the base class with the *pre-fix* behaviour
and assert the corpus / differential layer fails with a
:class:`DivergenceError` (or :class:`InvariantViolation`) naming the
operation.
"""

import pytest

from repro.core.cache import DnsCache, NegativeVerdict, cache_key
from repro.core.renewal import RenewalManager
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.rrtypes import RRType
from repro.validation.differential import DifferentialCache
from repro.validation.errors import DivergenceError, InvariantViolation
from repro.validation.fuzz import (
    CORPUS,
    apply_ops,
    make_rrset,
    run_corpus,
    run_fuzz,
    run_renewal_corpus,
)

_REAL_PUT = DnsCache.put


def _buggy_put(self, rrset, rank, now, refresh=False, taint=False):
    """The pre-fix overwrite: the entry keeps its stale LRU position.

    Implemented as a wrapper that undoes the fix's pop-then-set by
    restoring the key to the slot it occupied before the store.
    """
    key = rrset.ikey()
    if key not in self._entries:  # repro: ignore[REP008]
        return _REAL_PUT(self, rrset, rank, now, refresh, taint)
    order = list(self._entries)  # repro: ignore[REP008]
    result = _REAL_PUT(self, rrset, rank, now, refresh, taint)
    if result.stored and key in self._entries:  # repro: ignore[REP008]
        entries = dict(self._entries)  # repro: ignore[REP008]
        self._entries.clear()  # repro: ignore[REP008]
        for old_key in order:
            if old_key in entries:
                self._entries[old_key] = entries.pop(old_key)  # repro: ignore[REP008]
        self._entries.update(entries)  # repro: ignore[REP008]
    return result


def _buggy_total_entry_count(self):
    # Pre-fix: negative entries were invisible to the footprint count.
    return len(self._entries)  # repro: ignore[REP008]


def _buggy_remove(self, name, rrtype):
    # Pre-fix: only the positive entry was dropped; a negative verdict
    # under the same key survived a delegation change.
    key = cache_key(name, rrtype)
    return self._entries.pop(key, None) is not None  # repro: ignore[REP008]


def _buggy_purge_expired(self, now, older_than=0.0):
    # Pre-fix: lapsed negative entries accumulated forever.
    doomed = [
        key
        for key, entry in self._entries.items()  # repro: ignore[REP008]
        if entry.expires_at + older_than <= now
    ]
    for key in doomed:
        del self._entries[key]  # repro: ignore[REP008]
    return len(doomed)


def _buggy_get_negative(self, name, rrtype, now):
    # Pre-fix: the entry held no verdict, so every live negative entry —
    # NODATA included — replayed as "the name does not exist".
    held = self._negative.get(cache_key(name, rrtype))  # repro: ignore[REP008]
    if held is None or now >= held[0]:
        return None
    return NegativeVerdict.NXDOMAIN


def _silent_drop_on_timer(self, zone, now):
    """The pre-fix timer body: a successful refetch that does not move
    the expiry forward leaves the zone timerless with stranded credit."""
    self._timers.pop(zone, None)
    armed_expiry = self._armed_for.pop(zone, None)
    current_expiry = self._cache.zone_ns_expiry(zone, now)
    if current_expiry is None:
        self._lapse(zone, now, count=False)
        return
    if armed_expiry is not None and current_expiry > armed_expiry + 1e-6:
        self.note_irrs_cached(zone, current_expiry)
        return
    if not self.policy.take_renewal_credit(zone):
        self._lapse(zone, now)
        return
    self.renewals_attempted += 1
    if self._refetch(zone, now):
        self.renewals_succeeded += 1
        # ... and nothing else: no rearm, no lapse.  This is the bug.
    else:
        self.renewals_failed += 1
        self._lapse(zone, now)


def _always_counting_lapse(self, zone, now, count=True):
    # Pre-fix: a timer firing for an evicted zone counted as a lapse.
    self.lapses += 1
    self.policy.forget(zone)


def _case(name):
    return next(case for case in CORPUS if case.name == name)


class TestCorpusCatchesReinjectedCacheBugs:
    def test_lru_recency_on_refresh(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "put", _buggy_put)
        with pytest.raises(DivergenceError) as excinfo:
            run_corpus()
        message = str(excinfo.value)
        assert "lru-recency-on-refresh" in message
        assert "get(a.test./A" in message

    def test_lru_recency_on_dead_overwrite(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "put", _buggy_put)
        case = _case("lru-recency-on-dead-overwrite")
        cache = DifferentialCache(max_entries=case.max_entries)
        with pytest.raises(DivergenceError) as excinfo:
            apply_ops(cache, case.ops)
        assert excinfo.value.op is not None
        assert excinfo.value.op.startswith("get(a.test./A")

    def test_negative_entries_in_totals(self, monkeypatch):
        monkeypatch.setattr(
            DnsCache, "total_entry_count", _buggy_total_entry_count
        )
        with pytest.raises(DivergenceError) as excinfo:
            run_corpus()
        message = str(excinfo.value)
        assert "negative-entries-in-totals" in message
        assert "total_entry_count" in message

    def test_negative_entries_survive_remove(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "remove", _buggy_remove)
        with pytest.raises(DivergenceError) as excinfo:
            run_corpus()
        message = str(excinfo.value)
        assert "negative-entries-removed" in message
        assert "remove(host.test./MX" in message

    def test_negative_entries_survive_purge(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "purge_expired", _buggy_purge_expired)
        with pytest.raises(DivergenceError) as excinfo:
            run_corpus()
        message = str(excinfo.value)
        assert "negative-entries-purged" in message
        assert "purge_expired" in message

    def test_cached_nodata_replayed_as_nxdomain(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "get_negative", _buggy_get_negative)
        with pytest.raises(DivergenceError) as excinfo:
            run_corpus()
        message = str(excinfo.value)
        assert "negative-verdict-replayed" in message
        assert "get_negative(host.test./MX" in message

    def test_audit_compares_the_negative_verdict(self):
        # A verdict that drifts without any read noticing is still a
        # state mismatch: the full-state audit compares it with the expiry.
        cache = DifferentialCache()
        ghost = Name.from_text("ghost.test.")
        cache.put_negative(ghost, RRType.A, 0.0, 30.0, NegativeVerdict.NODATA)
        cache.audit(1.0)
        cache.oracle.put_negative(ghost, RRType.A, 0.0, 30.0,
                                  NegativeVerdict.NXDOMAIN)
        with pytest.raises(DivergenceError) as excinfo:
            cache.audit(1.0)
        assert "negative entries" in str(excinfo.value)

    def test_clean_build_passes(self):
        assert run_corpus() == len(CORPUS)


class TestRenewalCorpusCatchesReinjectedBugs:
    def test_silent_drop_strands_credit(self, monkeypatch):
        monkeypatch.setattr(RenewalManager, "_on_timer", _silent_drop_on_timer)
        with pytest.raises(InvariantViolation) as excinfo:
            run_renewal_corpus()
        assert excinfo.value.check in (
            "renewal-orphan-credit", "renewal-silent-drop"
        )

    def test_eviction_counted_as_lapse(self, monkeypatch):
        monkeypatch.setattr(RenewalManager, "_lapse", _always_counting_lapse)
        with pytest.raises(InvariantViolation) as excinfo:
            run_renewal_corpus()
        assert excinfo.value.check == "renewal-eviction-lapse"

    def test_clean_build_passes(self):
        assert run_renewal_corpus() == 3


class TestFuzzerCatchesReinjectedBugs:
    """The random fuzzer also finds the LRU bug, without the corpus."""

    def test_fuzz_flags_lru_recency_bug(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "put", _buggy_put)
        with pytest.raises(DivergenceError) as excinfo:
            run_fuzz(rounds=40, seed=1, ops_per_round=120)
        assert "fuzz round" in str(excinfo.value)

    def test_fuzz_flags_negative_leak(self, monkeypatch):
        monkeypatch.setattr(DnsCache, "purge_expired", _buggy_purge_expired)
        with pytest.raises(DivergenceError) as excinfo:
            run_fuzz(rounds=40, seed=1, ops_per_round=120)
        assert "fuzz round" in str(excinfo.value)


class _RecordingBus:
    # A subscribed bus, as EventBus reports one: every event is emitted.
    quiet = False

    def __init__(self):
        self.kinds = []

    def emit(self, kind, now, **fields):
        self.kinds.append(kind)


class TestObserverAttachment:
    """attach_observer must not rebind get() past the comparison layer."""

    def test_no_method_rebinding(self):
        cache = DifferentialCache()
        cache.attach_observer(_RecordingBus())
        assert "get" not in vars(cache)
        # The base class rebinds (the fast path this subclass avoids).
        base = DnsCache()
        base.attach_observer(_RecordingBus())
        assert "get" in vars(base)

    def test_events_flow_and_comparisons_continue(self):
        bus = _RecordingBus()
        cache = DifferentialCache(max_entries=2)
        cache.attach_observer(bus)
        cache.put(make_rrset("a.test.", RRType.A, 50.0, "10.0.0.1"),
                  Rank.AUTH_ANSWER, 0.0)
        checked_before = cache.ops_checked
        assert cache.get(Name.from_text("a.test."), RRType.A, 1.0) is not None
        assert cache.get(Name.from_text("b.test."), RRType.A, 1.0) is None
        assert cache.get(Name.from_text("a.test."), RRType.A, 60.0) is None
        assert cache.ops_checked > checked_before
        assert len(bus.kinds) == 3  # hit, miss, expired
        cache.audit(60.0)


class TestBackwardsClockReads:
    """Reads behind the count horizon use the scan fallback; the oracle
    (which always scans) must agree."""

    def test_backwards_reads_agree(self):
        cache = DifferentialCache()
        cache.put(make_rrset("a.test.", RRType.A, 5.0, "10.0.0.1"),
                  Rank.AUTH_ANSWER, 10.0)
        cache.put(make_rrset("z1.test.", RRType.NS, 100.0, "ns1.glue.test."),
                  Rank.AUTH_AUTHORITY, 10.0)
        # Forward query moves the incremental horizon past `a`'s expiry...
        assert cache.live_entry_count(16.0) == 1
        # ...so these backwards reads can only agree via the linear scan.
        assert cache.live_entry_count(12.0) == 2
        assert cache.live_record_count(12.0) == 2
        assert cache.live_zone_count(12.0) == 1
        cache.audit(16.0)

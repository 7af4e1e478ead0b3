"""Each invariant must fire on a tampered model and name its check id."""

import pytest

from repro.core.cache import DnsCache
from repro.core.policies import LRUPolicy
from repro.core.renewal import RenewalManager
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.rrtypes import RRType
from repro.simulation.engine import SimulationEngine
from repro.validation.errors import InvariantViolation
from repro.validation.fuzz import make_rrset
from repro.validation.invariants import (
    check_cache_invariants,
    check_renewal_invariants,
)

ZONE = Name.from_text("x.test.")


def seeded_cache(**kwargs):
    cache = DnsCache(**kwargs)
    cache.put(make_rrset("x.test.", RRType.NS, 100.0, "ns1.x.test."),
              Rank.AUTH_AUTHORITY, 0.0)
    cache.put(make_rrset("www.x.test.", RRType.A, 30.0, "10.0.0.1"),
              Rank.AUTH_ANSWER, 0.0)
    return cache


def manager_rig(credit=2.0, refetch=lambda zone, now: True):
    engine = SimulationEngine()
    cache = DnsCache()
    manager = RenewalManager(LRUPolicy(credit=credit), engine, cache, refetch)
    return engine, cache, manager


class TestCacheInvariants:
    def test_clean_cache_passes(self):
        check_cache_invariants(seeded_cache(), now=10.0)
        check_cache_invariants(seeded_cache(max_entries=4), now=50.0)

    def test_negative_published_ttl_flagged(self):
        cache = seeded_cache()
        cache.entry(ZONE, RRType.NS).published_ttl = -1.0
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=1.0)
        assert excinfo.value.check == "cache-entry-sanity"

    def test_overlong_lifetime_flagged(self):
        cache = seeded_cache(max_effective_ttl=50.0)
        # An entry living past min(published_ttl, cap) is corrupt.
        cache.entry(ZONE, RRType.NS).expires_at = 500.0
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=1.0)
        assert excinfo.value.check == "cache-entry-sanity"

    def test_capacity_overflow_flagged(self):
        cache = seeded_cache(max_entries=2)
        rogue = make_rrset("rogue.test.", RRType.A, 10.0, "10.0.0.9")
        from repro.core.cache import CacheEntry
        cache._entries[rogue.ikey()] = CacheEntry(  # repro: ignore[REP008]
            rrset=rogue, rank=Rank.AUTH_ANSWER, stored_at=0.0,
            expires_at=10.0, published_ttl=10.0,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=1.0)
        assert excinfo.value.check == "cache-capacity"


class TestTaintInvariants:
    FORGED = Name.from_text("victim.x.test.")

    def poisoned_cache(self, **kwargs):
        cache = seeded_cache(**kwargs)
        cache.put(make_rrset("victim.x.test.", RRType.A, 60.0, "10.0.0.2"),
                  Rank.AUTH_ANSWER, 0.0)
        cache.put(make_rrset("victim.x.test.", RRType.A, 60.0,
                             "198.51.100.66"),
                  Rank.AUTH_ANSWER, 1.0, taint=True)
        return cache

    def taint_key(self, cache):
        (key,) = cache.tainted_entries().keys()
        return key

    def test_clean_poisoned_cache_passes(self):
        check_cache_invariants(self.poisoned_cache(), now=2.0)

    def test_flag_registry_disagreement_flagged(self):
        cache = self.poisoned_cache()
        # Clear the per-entry flag but leave the registry row behind.
        cache.entry(self.FORGED, RRType.A).tainted = False
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=2.0)
        assert excinfo.value.check == "cache-taint-accounting"

    def test_registered_rank_mismatch_flagged(self):
        cache = self.poisoned_cache()
        key = self.taint_key(cache)
        taint_time, _rank, displaced = cache._tainted[key]
        cache._tainted[key] = (taint_time, Rank.ADDITIONAL, displaced)
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=2.0)
        assert excinfo.value.check == "cache-taint-accounting"

    def test_stored_before_taint_time_flagged(self):
        cache = self.poisoned_cache()
        key = self.taint_key(cache)
        _taint_time, rank, displaced = cache._tainted[key]
        cache._tainted[key] = (500.0, rank, displaced)
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=2.0)
        assert excinfo.value.check == "cache-taint-accounting"

    def test_silent_rank_displacement_flagged(self):
        # Seed a forged entry of authority rank at a fresh name, then
        # claim it displaced live answer-rank data — a displacement RFC
        # 2181 ranking can never have allowed.
        cache = seeded_cache()
        cache.put(make_rrset("victim.x.test.", RRType.A, 60.0,
                             "198.51.100.66"),
                  Rank.AUTH_AUTHORITY, 1.0, taint=True)
        key = self.taint_key(cache)
        taint_time, rank, _displaced = cache._tainted[key]
        cache._tainted[key] = (taint_time, rank, Rank.AUTH_ANSWER)
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=2.0)
        assert excinfo.value.check == "cache-taint-rank"

    def test_hardened_equal_rank_displacement_flagged(self):
        # Under hardened ingestion the equal-rank displacement is refused
        # at put time, so seed the forged entry at a fresh name (stored
        # with nothing displaced) and corrupt the registry afterwards.
        cache = seeded_cache(harden_ranking=True)
        cache.put(make_rrset("victim.x.test.", RRType.A, 60.0,
                             "198.51.100.66"),
                  Rank.AUTH_ANSWER, 1.0, taint=True)
        key = self.taint_key(cache)
        taint_time, rank, _displaced = cache._tainted[key]
        # Equal-rank displacement of live data is exactly what hardened
        # ingestion forbids; a registry row recording one is corrupt.
        cache._tainted[key] = (taint_time, rank, rank)
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_invariants(cache, now=2.0)
        assert excinfo.value.check == "cache-taint-rank"


class TestRenewalInvariants:
    def test_clean_manager_passes(self):
        engine, cache, manager = manager_rig()
        ns = make_rrset("x.test.", RRType.NS, 100.0, "ns1.x.test.")
        result = cache.put(ns, Rank.AUTH_AUTHORITY, 0.0)
        manager.note_zone_use(ZONE, 100.0, 0.0)
        manager.note_irrs_cached(ZONE, result.expires_at, engine.now)
        check_renewal_invariants(manager, cache, now=1.0)

    def test_armed_timer_on_dead_zone_flagged(self):
        engine, cache, manager = manager_rig()
        ns = make_rrset("x.test.", RRType.NS, 100.0, "ns1.x.test.")
        result = cache.put(ns, Rank.AUTH_AUTHORITY, 0.0)
        manager.note_irrs_cached(ZONE, result.expires_at, engine.now)
        cache.remove(ZONE, RRType.NS)
        with pytest.raises(InvariantViolation) as excinfo:
            check_renewal_invariants(manager, cache, now=1.0)
        assert excinfo.value.check == "renewal-armed-live"

    def test_negative_credit_flagged(self):
        engine, cache, manager = manager_rig()
        manager.policy._credits[ZONE.iid] = -0.5
        with pytest.raises(InvariantViolation) as excinfo:
            check_renewal_invariants(manager, cache, now=1.0)
        assert excinfo.value.check == "renewal-credit-sign"

    def test_orphaned_credit_flagged(self):
        engine, cache, manager = manager_rig()
        # Credit with no timer and no live NS: the silent-drop signature.
        manager.note_zone_use(ZONE, 100.0, 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            check_renewal_invariants(manager, cache, now=1.0)
        assert excinfo.value.check == "renewal-orphan-credit"

    def test_orphaned_credit_allowed_under_serve_stale(self):
        engine, cache, manager = manager_rig()
        manager.note_zone_use(ZONE, 100.0, 0.0)
        check_renewal_invariants(manager, cache, now=1.0,
                                 allow_stale_credit=True)

    def test_accounting_identity_flagged(self):
        engine, cache, manager = manager_rig()
        # A code path that bumps attempts but records neither outcome
        # (e.g. a forgotten renewals_failed update) breaks the identity.
        manager.renewals_attempted = 1
        with pytest.raises(InvariantViolation) as excinfo:
            check_renewal_invariants(manager, cache, now=1.0)
        assert excinfo.value.check == "renewal-accounting"

"""Tests for the renewal manager (timers + credits + refetch)."""

import pytest

from repro.core.cache import DnsCache
from repro.core.policies import LRUPolicy
from repro.core.renewal import RENEWAL_LEAD, RenewalManager
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.engine import SimulationEngine

ZONE = Name.from_text("ucla.edu")


def ns_set(ttl=100.0):
    return RRset.from_records(
        [ResourceRecord(ZONE, RRType.NS, ttl, Name.from_text("ns1.ucla.edu"))]
    )


class Harness:
    """A renewal manager wired to a scriptable refetch."""

    def __init__(self, credit=2, refetch_succeeds=True):
        self.engine = SimulationEngine()
        self.cache = DnsCache()
        self.policy = LRUPolicy(credit=credit)
        self.refetch_calls = []
        self.refetch_succeeds = refetch_succeeds
        self.manager = RenewalManager(
            policy=self.policy,
            clock=self.engine,
            cache=self.cache,
            refetch=self._refetch,
        )

    def _refetch(self, zone, now):
        self.refetch_calls.append((zone, now))
        if self.refetch_succeeds:
            # Simulate the ingest path: re-store the NS set, restarting
            # the countdown, and notify the manager.
            result = self.cache.put(ns_set(ttl=100.0), Rank.AUTH_ANSWER, now,
                                    refresh=True)
            self.manager.note_irrs_cached(ZONE, result.expires_at, now)
            return True
        return False

    def cache_irrs(self, now=0.0, ttl=100.0):
        result = self.cache.put(ns_set(ttl=ttl), Rank.AUTH_AUTHORITY, now)
        self.manager.note_irrs_cached(ZONE, result.expires_at, now)
        return result.expires_at


class TestRenewalTimers:
    def test_refetch_fires_just_before_expiry(self):
        h = Harness(credit=1)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.engine.advance_to(100.0 - RENEWAL_LEAD - 0.001)
        assert h.refetch_calls == []
        h.engine.advance_to(100.0)
        assert len(h.refetch_calls) == 1
        assert h.refetch_calls[0][1] == pytest.approx(100.0 - RENEWAL_LEAD)

    def test_credit_limits_renewal_count(self):
        h = Harness(credit=2)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.engine.advance_to(1000.0)
        # 2 credits -> 2 refetches, then the records lapse.
        assert len(h.refetch_calls) == 2
        assert h.manager.lapses >= 1
        assert h.cache.zone_ns_expiry(ZONE, 1000.0) is None

    def test_no_credit_means_no_refetch(self):
        h = Harness(credit=2)
        h.cache_irrs(now=0.0, ttl=100.0)
        # No on_zone_use -> no credit.
        h.engine.advance_to(500.0)
        assert h.refetch_calls == []
        assert h.manager.lapses == 1

    def test_failed_refetch_lets_records_lapse(self):
        h = Harness(credit=5, refetch_succeeds=False)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.engine.advance_to(500.0)
        assert len(h.refetch_calls) == 1  # one attempt, then lapse
        assert h.manager.renewals_succeeded == 0
        assert h.cache.zone_ns_expiry(ZONE, 500.0) is None

    def test_refreshed_entry_rearms_without_spending_credit(self):
        h = Harness(credit=1)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        # At t=50 a demand response refreshes the IRRs to expire at 150.
        result = h.cache.put(ns_set(ttl=100.0), Rank.AUTH_ANSWER, 50.0,
                             refresh=True)
        h.manager.note_irrs_cached(ZONE, result.expires_at, 50.0)
        h.engine.advance_to(120.0)
        assert h.refetch_calls == []  # old timer noticed the refresh
        assert h.policy.credit_of(ZONE) == 1  # credit untouched
        h.engine.advance_to(200.0)
        assert len(h.refetch_calls) == 1  # renewal happened at ~150

    def test_rearm_with_same_expiry_is_noop(self):
        h = Harness(credit=1)
        expiry = h.cache_irrs(now=0.0, ttl=100.0)
        before = h.engine.pending_events()
        h.manager.note_irrs_cached(ZONE, expiry, h.engine.now)
        assert h.engine.pending_events() == before

    def test_forget_zone_cancels_timer(self):
        h = Harness(credit=3)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.manager.forget_zone(ZONE)
        h.engine.advance_to(500.0)
        assert h.refetch_calls == []
        assert h.policy.credit_of(ZONE) == 0

    def test_timer_on_evicted_zone_lapses_quietly(self):
        h = Harness(credit=3)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.cache.remove(ZONE, RRType.NS)
        h.engine.advance_to(500.0)
        assert h.refetch_calls == []

    def test_armed_timer_count(self):
        h = Harness()
        assert h.manager.armed_timer_count() == 0
        h.cache_irrs()
        assert h.manager.armed_timer_count() == 1

    def test_successful_renewals_keep_zone_alive(self):
        h = Harness(credit=3)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.engine.advance_to(250.0)
        # After two renewals (at ~99 and ~198) the IRRs are still live.
        assert h.cache.zone_ns_expiry(ZONE, 250.0) is not None
        assert h.manager.renewals_succeeded == 2


class TestRenewalAccounting:
    def test_eviction_is_not_counted_as_lapse(self):
        h = Harness(credit=3)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.cache.remove(ZONE, RRType.NS)
        h.engine.advance_to(500.0)
        assert h.manager.lapses == 0  # nothing expired *under renewal*
        assert h.policy.credit_of(ZONE) == 0  # state still cleaned up

    def test_failed_refetch_lands_in_renewals_failed(self):
        h = Harness(credit=5, refetch_succeeds=False)
        h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        h.engine.advance_to(500.0)
        assert h.manager.renewals_attempted == 1
        assert h.manager.renewals_failed == 1
        assert h.manager.renewals_attempted == (
            h.manager.renewals_succeeded + h.manager.renewals_failed
        )

    def test_armed_zones_lists_pending_timers(self):
        h = Harness()
        assert h.manager.armed_zones() == ()
        h.cache_irrs()
        assert h.manager.armed_zones() == (ZONE,)


class TestSilentDropRegression:
    """A "successful" refetch that leaves the cached expiry inside the
    renewal lead must rearm immediately (spending further credit) and
    eventually lapse — never strand the zone timerless with credit."""

    @staticmethod
    def _rig(credit, refetch):
        engine = SimulationEngine()
        cache = DnsCache()
        policy = LRUPolicy(credit=credit)
        manager = RenewalManager(
            policy=policy, clock=engine, cache=cache, refetch=refetch
        )
        return engine, cache, policy, manager

    def test_refetch_inside_lead_keeps_renewing_until_broke(self):
        calls = []
        state = {}

        def refetch(zone, now):
            calls.append(now)
            # Same rank + same data + no refresh: the put is rejected and
            # the countdown is NOT restarted, so the server-side ingest
            # hook never re-arms the timer for us.
            state["cache"].put(ns_set(ttl=100.0), Rank.AUTH_AUTHORITY, now)
            return True

        engine, cache, policy, manager = self._rig(2, refetch)
        state["cache"] = cache
        result = cache.put(ns_set(ttl=100.0), Rank.AUTH_AUTHORITY, 0.0)
        manager.note_irrs_cached(ZONE, result.expires_at, engine.now)
        policy.on_zone_use(ZONE, 100.0, 0.0)
        engine.run()
        # Both credits go on (futile) renewals at ~99, then a clean lapse.
        assert len(calls) == 2
        assert manager.lapses == 1
        assert policy.credit_of(ZONE) == 0
        assert manager.renewals_attempted == 2
        assert manager.renewals_succeeded == 2
        assert manager.armed_zones() == ()

    def test_refetch_that_stores_nothing_live_counts_a_lapse(self):
        state = {}

        def refetch(zone, now):
            # "Success" whose payload is already dead on arrival.
            state["cache"].put(ns_set(ttl=0.0), Rank.AUTH_AUTHORITY, now,
                               refresh=True)
            return True

        engine, cache, policy, manager = self._rig(3, refetch)
        state["cache"] = cache
        result = cache.put(ns_set(ttl=100.0), Rank.AUTH_AUTHORITY, 0.0)
        manager.note_irrs_cached(ZONE, result.expires_at, engine.now)
        policy.on_zone_use(ZONE, 100.0, 0.0)
        engine.run()
        assert manager.lapses == 1
        assert policy.credit_of(ZONE) == 0  # no orphaned credit
        assert manager.renewals_attempted == 1
        assert manager.renewals_succeeded == 1
        assert cache.zone_ns_expiry(ZONE, engine.now) is None


class TestTimerAttribution:
    """The perf ledger files a timer under ``renewal.timer`` by its
    action's ``__module__``, read when ``SimulationEngine.schedule`` is
    called.  A ``functools.partial`` or a timer body moved to another
    module would silently empty that layer; this fails first."""

    def test_every_renewal_timer_is_filed_under_renewal(self, monkeypatch):
        modules = []
        schedule = SimulationEngine.schedule

        def recording(engine, when, action):
            modules.append(getattr(action, "__module__", ""))
            return schedule(engine, when, action)

        # Patched on the class, the way the tracer wraps it.
        monkeypatch.setattr(SimulationEngine, "schedule", recording)
        h = Harness(credit=3)
        expiry = h.cache_irrs(now=0.0, ttl=100.0)
        h.policy.on_zone_use(ZONE, 100.0, 0.0)
        # A refresh before the timer fires: it rearms on firing.
        h.cache.put(ns_set(ttl=100.0), Rank.AUTH_ANSWER, 50.0, refresh=True)
        h.engine.advance_to(expiry)
        h.engine.advance_to(400.0)
        assert h.manager.renewals_succeeded >= 2
        assert len(modules) >= 4
        assert set(modules) == {"repro.core.renewal"}

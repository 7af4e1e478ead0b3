"""Boundary semantics of the stale-read paths, pinned under the oracle.

``get_stale`` / ``allow_stale`` had no differential coverage: the
boundary convention (``now - expires_at > max_stale`` rejects, so an
entry *exactly* ``max_stale`` seconds past expiry is still served) was
only implied by the serve-stale comparator experiment.  These tests
run every read through :class:`DifferentialCache`, so the real cache
and the naive oracle must agree on each one — a divergence raises
before any assertion here even fires.  The second half drives the
stale-NS fallback in ``CachingServer._starting_zone`` / ``_query_zone``
with the cache shadowed, which no test did before.
"""

from repro.core.caching_server import ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_root_and_tlds, attack_on_zones
from repro.validation.differential import DifferentialCache
from repro.validation.invariants import check_cache_invariants

from tests.conftest import make_stack
from tests.helpers import HOUR, name


def a_set(owner="www.x.test", ttl=300.0, address="10.0.0.1"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(owner), RRType.A, ttl, address)]
    )


def ns_set(zone="x.test", ttl=3600.0, server="ns1.x.test"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(zone), RRType.NS, ttl,
                        Name.from_text(server))]
    )


class TestGetStaleBoundary:
    """Lockstep reads at, around, and far past the max_stale bound."""

    def setup_method(self):
        self.cache = DifferentialCache()
        self.owner = Name.from_text("www.x.test")
        # Expires at t=10.
        self.cache.put(a_set(ttl=10.0), Rank.AUTH_ANSWER, now=0.0)

    def test_exactly_at_boundary_is_served(self):
        # 30 s past expiry with max_stale=30: not *more* stale than
        # allowed, so both implementations must serve it.
        assert self.cache.get_stale(self.owner, RRType.A, 40.0,
                                    max_stale=30.0) is not None

    def test_epsilon_past_boundary_is_rejected(self):
        assert self.cache.get_stale(self.owner, RRType.A, 40.5,
                                    max_stale=30.0) is None

    def test_zero_grace_serves_only_at_expiry_instant(self):
        assert self.cache.get_stale(self.owner, RRType.A, 10.0,
                                    max_stale=0.0) is not None
        assert self.cache.get_stale(self.owner, RRType.A, 10.5,
                                    max_stale=0.0) is None

    def test_live_entry_always_served(self):
        assert self.cache.get_stale(self.owner, RRType.A, 5.0,
                                    max_stale=0.0) is not None

    def test_none_means_unbounded(self):
        assert self.cache.get_stale(self.owner, RRType.A, 1e9,
                                    max_stale=None) is not None

    def test_unknown_name_is_none(self):
        assert self.cache.get_stale(Name.from_text("ghost.x.test"),
                                    RRType.A, 5.0, max_stale=None) is None
        check_cache_invariants(self.cache, now=5.0)
        assert self.cache.ops_checked >= 6


class TestBestZoneAllowStale:
    """allow_stale zone selection, shadowed."""

    def test_lapsed_deep_zone_returned_only_with_allow_stale(self):
        cache = DifferentialCache()
        cache.put(ns_set(zone="test", ttl=100.0), Rank.AUTH_AUTHORITY, 0.0)
        cache.put(ns_set(zone="x.test", ttl=10.0), Rank.AUTH_AUTHORITY, 0.0)
        qname = Name.from_text("www.x.test")
        assert cache.best_zone_for(qname, 50.0) == Name.from_text("test")
        assert cache.best_zone_for(qname, 50.0, allow_stale=True) \
            == Name.from_text("x.test")


class TestStaleNsFallbackShadowed:
    """The serve-stale resolution path with every cache op shadowed."""

    def test_stale_ns_reaches_live_sld_under_validation(self, mini):
        # IRRs expired, root+TLD blocked, SLD alive: `_starting_zone`
        # picks the lapsed SLD zone via allow_stale and `_query_zone`
        # hands out its stale NS names.
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        server, *_ = make_stack(mini, ResilienceConfig.stale_serving(),
                                attacks=attacks, validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("mail.example.test."),
                                          RRType.A, 2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.ANSWERED
        assert server.cache.ops_checked > 0
        check_cache_invariants(server.cache, now=2.5 * HOUR)

    def test_stale_answer_when_all_paths_blocked_under_validation(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        attacks.add_window(
            attack_on_zones(mini.tree, [name("example.test.")],
                            start=2 * HOUR, duration=2 * HOUR).windows()[0]
        )
        server, *_ = make_stack(mini, ResilienceConfig.stale_serving(),
                                attacks=attacks, validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("www.example.test."),
                                          RRType.A, 2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.STALE_HIT


class TestSwrShadowed:
    """The swr scheme's stale read + background refetch, shadowed."""

    def test_swr_serves_stale_and_refetches_once(self, mini):
        config = ResilienceConfig.swr(grace=HOUR)
        server, engine, _, metrics = make_stack(mini, config,
                                                validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        entry = server.cache.entry(name("www.example.test."), RRType.A)
        just_stale = entry.expires_at + 1.0
        engine.advance_to(just_stale)
        first = server.handle_stub_query(name("www.example.test."),
                                         RRType.A, just_stale)
        assert first.outcome is ResolutionOutcome.STALE_HIT
        # A second stale hit dedups onto the pending refetch.
        second = server.handle_stub_query(name("www.example.test."),
                                          RRType.A, just_stale)
        assert second.outcome is ResolutionOutcome.STALE_HIT
        assert metrics.swr_refreshes == 1
        assert metrics.sr_stale_hits == 2
        # Fire the background refetch: the entry comes back live and
        # its fetch was renewal-tagged (no demand queries added).
        demand_before = metrics.cs_demand_queries
        engine.advance_to(just_stale + 1.0)
        assert metrics.cs_demand_queries == demand_before
        assert metrics.cs_renewal_queries > 0
        refreshed = server.cache.get(name("www.example.test."), RRType.A,
                                     just_stale + 1.0)
        assert refreshed is not None

    def test_swr_past_grace_refetches_in_foreground(self, mini):
        config = ResilienceConfig.swr(grace=60.0)
        server, engine, _, metrics = make_stack(mini, config,
                                                validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        entry = server.cache.entry(name("www.example.test."), RRType.A)
        past_grace = entry.expires_at + 61.0
        engine.advance_to(past_grace)
        resolution = server.handle_stub_query(name("www.example.test."),
                                              RRType.A, past_grace)
        assert resolution.outcome is ResolutionOutcome.ANSWERED
        assert metrics.swr_refreshes == 0


class TestInvalidationShadowed:
    """The decoupled scheme's invalidation eviction, shadowed."""

    def test_invalidation_evicts_and_schedules_renewal_refetch(self, mini):
        config = ResilienceConfig.decoupled(7.0)
        server, engine, _, metrics = make_stack(mini, config,
                                                validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        zone = name("example.test.")
        assert server.cache.entry(zone, RRType.NS) is not None
        server.handle_invalidation(zone, 10.0)
        assert server.cache.entry(zone, RRType.NS) is None
        assert metrics.invalidations == 1
        # The scheduled NS refetch is renewal-tagged.
        engine.advance_to(11.0)
        assert metrics.cs_renewal_queries > 0
        assert server.cache.entry(zone, RRType.NS) is not None
        check_cache_invariants(server.cache, now=11.0)

    def test_invalidation_ignored_without_update_channel(self, mini):
        server, _, _, metrics = make_stack(
            mini, ResilienceConfig.refresh_long_ttl(7.0), validation=True)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        zone = name("example.test.")
        server.handle_invalidation(zone, 10.0)
        assert server.cache.entry(zone, RRType.NS) is not None
        assert metrics.invalidations == 0

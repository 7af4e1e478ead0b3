"""Unit tests for the caching server's iterative resolution, refresh,
renewal, stale serving and gap hooks — all against the deterministic
hand-built mini internet."""

import pytest

from repro.core.config import ResilienceConfig
from repro.core.caching_server import (
    MAX_CNAME_CHAIN,
    NEGATIVE_TTL,
    ResolutionOutcome,
)
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_root_and_tlds, attack_on_zones

from tests.conftest import make_stack
from tests.helpers import HOUR, build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


class TestIterativeResolution:
    def test_cold_resolution_walks_root_tld_sld(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        resolution = server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        assert resolution.outcome is ResolutionOutcome.ANSWERED
        assert resolution.answer is not None
        # Exactly three hops: root referral, TLD referral, SLD answer.
        assert metrics.cs_demand_queries == 3
        assert metrics.cs_demand_failures == 0

    def test_repeat_query_is_cache_hit(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        second = server.handle_stub_query(name("www.example.test."), RRType.A, 1.0)
        assert second.outcome is ResolutionOutcome.CACHE_HIT

    def test_sibling_query_reuses_cached_irrs(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        before = metrics.cs_demand_queries
        server.handle_stub_query(name("mail.example.test."), RRType.A, 1.0)
        # Zone IRRs cached: a single query straight to the SLD.
        assert metrics.cs_demand_queries == before + 1

    def test_cname_chased_across_answer(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        resolution = server.handle_stub_query(name("web.example.test."), RRType.A, 0.0)
        assert resolution.outcome is ResolutionOutcome.ANSWERED
        assert resolution.answer.rrtype is RRType.A

    def test_nxdomain_and_negative_cache(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        first = server.handle_stub_query(name("ghost.example.test."), RRType.A, 0.0)
        assert first.outcome is ResolutionOutcome.NXDOMAIN
        queries_after_first = metrics.cs_demand_queries
        second = server.handle_stub_query(name("ghost.example.test."), RRType.A, 1.0)
        assert second.outcome is ResolutionOutcome.NXDOMAIN
        assert metrics.cs_demand_queries == queries_after_first  # served negatively

    def test_nodata_for_missing_type(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        resolution = server.handle_stub_query(name("www.example.test."), RRType.MX, 0.0)
        assert resolution.outcome is ResolutionOutcome.NODATA

    def test_cached_nodata_replays_as_nodata(self, mini):
        # RFC 2308 §2.2: the name exists, only the type is missing.  The
        # negative entry used to hold no verdict and every replay of it
        # read NXDOMAIN — for a name whose A record was being served.
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        www = name("www.example.test.")
        first = server.handle_stub_query(www, RRType.TXT, 0.0)
        queries_after_first = metrics.cs_demand_queries
        replays = [
            server.handle_stub_query(www, RRType.TXT, now) for now in (1.0, 2.0)
        ]
        assert [r.outcome for r in (first, *replays)] == [ResolutionOutcome.NODATA] * 3
        assert all(r.answer is None and not r.failed for r in replays)
        assert metrics.cs_demand_queries == queries_after_first  # served negatively
        assert metrics.sr_nxdomain == 0
        # The name itself still answers.
        assert not server.handle_stub_query(www, RRType.A, 3.0).failed

    def test_both_negative_verdicts_lapse_at_the_negative_ttl(self, mini):
        config = ResilienceConfig.vanilla()
        server, engine, network, metrics = make_stack(mini, config)
        www, ghost = name("www.example.test."), name("ghost.example.test.")
        server.handle_stub_query(www, RRType.TXT, 0.0)
        server.handle_stub_query(ghost, RRType.A, 0.0)
        before = metrics.cs_demand_queries
        last = NEGATIVE_TTL - 1.0
        assert server.handle_stub_query(www, RRType.TXT, last).outcome \
            is ResolutionOutcome.NODATA
        assert server.handle_stub_query(ghost, RRType.A, last).outcome \
            is ResolutionOutcome.NXDOMAIN
        assert metrics.cs_demand_queries == before
        assert metrics.sr_nxdomain == 2  # the ghost, fresh and replayed
        # At the TTL both entries are dead: each verdict is fetched anew.
        lapsed = NEGATIVE_TTL
        assert server.handle_stub_query(www, RRType.TXT, lapsed).outcome \
            is ResolutionOutcome.NODATA
        assert server.handle_stub_query(ghost, RRType.A, lapsed).outcome \
            is ResolutionOutcome.NXDOMAIN
        assert metrics.cs_demand_queries > before

    def test_glueless_zone_resolves_via_provider(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        resolution = server.handle_stub_query(name("www.hosted.test."), RRType.A, 0.0)
        assert resolution.outcome is ResolutionOutcome.ANSWERED
        # The walk had to resolve ns*.provider.test. A records first.
        a_entry = server.cache.entry(name("ns1.provider.test."), RRType.A)
        assert a_entry is not None

    def test_third_level_zone_resolution(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        resolution = server.handle_stub_query(
            name("www.dept.example.test."), RRType.A, 0.0
        )
        assert resolution.outcome is ResolutionOutcome.ANSWERED

    def test_sr_metrics_recorded(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        server.handle_stub_query(name("www.example.test."), RRType.A, 1.0)
        assert metrics.sr_queries == 2
        assert metrics.sr_cache_hits == 1
        assert metrics.sr_failures == 0


def _chain(zones, links):
    """``links`` CNAME records ``c0 -> c1 -> ... -> c<links>``, the i-th
    owned under ``zones[i % len(zones)]``, and the A record that ends it."""
    owners = [
        name(f"c{i}.{zones[i % len(zones)]}") for i in range(links + 1)
    ]
    records = [
        ResourceRecord(owner, RRType.CNAME, HOUR, target)
        for owner, target in zip(owners, owners[1:])
    ]
    records.append(ResourceRecord(owners[-1], RRType.A, HOUR, "10.9.9.9"))
    return owners[0], records


class TestCnameChainLimit:
    """A lookup follows at most ``MAX_CNAME_CHAIN`` (8) links, whether
    the links come from the cache or from upstream."""

    @pytest.mark.parametrize("links, outcome", [
        (MAX_CNAME_CHAIN - 1, ResolutionOutcome.CACHE_HIT),
        (MAX_CNAME_CHAIN, ResolutionOutcome.FAILURE),
        (MAX_CNAME_CHAIN + 1, ResolutionOutcome.FAILURE),
    ])
    def test_fully_cached_chain(self, mini, links, outcome):
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla()
        )
        head, records = _chain(["example.test."], links)
        for record in records:
            server.cache.put(RRset.from_records([record]), Rank.AUTH_ANSWER, 0.0)
        resolution = server.handle_stub_query(head, RRType.A, 1.0)
        assert resolution.outcome is outcome
        if outcome is ResolutionOutcome.CACHE_HIT:
            assert resolution.answer.name == records[-1].name
        assert metrics.cs_demand_queries == 0

    @pytest.mark.parametrize("links, outcome, answered_by, queries", [
        # Each link lives in the other zone, so each costs one fetch and
        # one step of the loop to follow it: three links fit in eight
        # steps, four do not.  Upstream: root, test., example.test. for
        # c0; test. and provider.test. for c1; one query each after.  The
        # fourth link is followed but its target never fetched.
        (3, ResolutionOutcome.ANSWERED, "c3.provider.test.", 7),
        (4, ResolutionOutcome.FAILURE, None, 7),
    ])
    def test_cold_chain_fetched_across_zones(
        self, links, outcome, answered_by, queries
    ):
        head, records = _chain(["example.test.", "provider.test."], links)
        mini = build_mini_internet(extra_records=records)
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla()
        )
        resolution = server.handle_stub_query(head, RRType.A, 0.0)
        assert resolution.outcome is outcome
        if answered_by is None:
            assert resolution.answer is None
        else:
            assert resolution.answer.name == name(answered_by)
            assert resolution.answer.records[0].data == "10.9.9.9"
        assert metrics.cs_demand_queries == queries


class TestRefresh:
    def test_vanilla_does_not_extend_irr_ttl(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        first_expiry = server.cache.zone_ns_expiry(name("example.test."), 0.0)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 100.0)
        assert server.cache.zone_ns_expiry(name("example.test."), 100.0) == first_expiry

    def test_refresh_extends_irr_ttl_on_every_answer(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.refresh())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        first_expiry = server.cache.zone_ns_expiry(name("example.test."), 0.0)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 100.0)
        refreshed = server.cache.zone_ns_expiry(name("example.test."), 100.0)
        assert refreshed == pytest.approx(first_expiry + 100.0)

    def test_refresh_does_not_touch_data_records(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.refresh())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        data_expiry = server.cache.expires_at(name("www.example.test."), RRType.A, 0.0)
        assert data_expiry == pytest.approx(600.0)  # data TTL, unrefreshed

    def test_zone_kept_alive_by_steady_queries(self, mini):
        # The paper's Figure 2 "refresh" scenario: queries at intervals
        # shorter than the 1 h NS TTL keep the IRRs cached forever.
        server, *_ = make_stack(mini, ResilienceConfig.refresh())
        hosts = ["www", "mail"]
        time = 0.0
        for step in range(10):
            qname = name(f"{hosts[step % 2]}.example.test.")
            resolution = server.handle_stub_query(qname, RRType.A, time)
            assert not resolution.failed
            time += 0.9 * HOUR
        assert server.cache.zone_ns_expiry(name("example.test."), time) is not None


class TestAttackBehaviour:
    def test_uncached_zone_fails_during_root_tld_attack(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=0.0, duration=HOUR)
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla(), attacks=attacks
        )
        resolution = server.handle_stub_query(name("www.example.test."), RRType.A, 10.0)
        assert resolution.outcome is ResolutionOutcome.FAILURE
        assert metrics.sr_failures == 1
        assert metrics.cs_demand_failures > 0

    def test_cached_irrs_survive_attack(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=100.0, duration=HOUR)
        server, *_ = make_stack(mini, ResilienceConfig.vanilla(), attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("mail.example.test."), RRType.A, 200.0)
        assert during.outcome is ResolutionOutcome.ANSWERED  # straight to SLD

    def test_expired_irrs_fail_during_attack(self, mini):
        # SLD NS TTL is 1 h; attack starts at 2 h, query at 2.5 h.
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        server, *_ = make_stack(mini, ResilienceConfig.vanilla(), attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("mail.example.test."), RRType.A,
                                          2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.FAILURE

    def test_refresh_keeps_zone_reachable_through_attack(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        server, *_ = make_stack(mini, ResilienceConfig.refresh(), attacks=attacks)
        # Steady queries every 30 min keep refreshing the 1 h NS TTL; the
        # last refresh (t=1.5 h) carries the IRRs to 2.5 h.
        time = 0.0
        for _ in range(4):
            server.handle_stub_query(name("www.example.test."), RRType.A, time)
            time += 0.5 * HOUR
        during = server.handle_stub_query(name("mail.example.test."), RRType.A,
                                          2.4 * HOUR)
        assert during.outcome is ResolutionOutcome.ANSWERED

    def test_attack_on_provider_breaks_hosted_zone(self, mini):
        attacks = attack_on_zones(mini.tree, [name("provider.test.")],
                                  start=0.0, duration=HOUR)
        server, *_ = make_stack(mini, ResilienceConfig.vanilla(), attacks=attacks)
        resolution = server.handle_stub_query(name("www.hosted.test."), RRType.A, 10.0)
        assert resolution.outcome is ResolutionOutcome.FAILURE

    def test_partial_server_failure_falls_through_to_live_server(self, mini):
        # Block only example.test.'s first server address via a fake
        # attack on a zone that shares just that server: simulate by
        # attacking example.test. and checking retries count failures.
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=HOUR)
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla(), attacks=attacks
        )
        resolution = server.handle_stub_query(name("www.example.test."), RRType.A, 1.0)
        assert resolution.outcome is ResolutionOutcome.FAILURE
        # It tried both SLD servers (both blocked) after the referrals.
        assert metrics.cs_demand_failures >= 2


class TestRenewalIntegration:
    def test_renewal_keeps_popular_zone_cached_past_ttl(self, mini):
        config = ResilienceConfig.refresh_renew("lru", 3)
        server, engine, *_ = make_stack(mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # 1 h NS TTL, credit 3 -> survives to ~4 h without any queries.
        engine.advance_to(3.5 * HOUR)
        assert server.cache.zone_ns_expiry(name("example.test."), 3.5 * HOUR) is not None
        engine.advance_to(6 * HOUR)
        assert server.cache.zone_ns_expiry(name("example.test."), 6 * HOUR) is None

    def test_renewal_refetch_goes_to_child_not_parent(self, mini):
        config = ResilienceConfig.refresh_renew("lru", 1)
        server, engine, network, metrics = make_stack(mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        demand_before = metrics.cs_demand_queries
        engine.advance_to(1.5 * HOUR)  # past the 1 h expiry -> one renewal
        assert metrics.cs_renewal_queries >= 1
        assert metrics.cs_demand_queries == demand_before  # no demand traffic

    def test_renewal_does_not_self_fund(self, mini):
        # A renewal refetch must not top up the zone's credit, or zones
        # would stay cached forever.
        config = ResilienceConfig.refresh_renew("lru", 2)
        server, engine, *_ = make_stack(mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        engine.advance_to(24 * HOUR)
        # credit 2 -> alive for ~3 h only, certainly not 24 h.
        assert server.cache.zone_ns_expiry(name("example.test."), 24 * HOUR) is None

    def test_renewal_refetch_fails_under_attack_and_zone_lapses(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.5 * HOUR, duration=10 * HOUR)
        config = ResilienceConfig.refresh_renew("lru", 5)
        server, engine, network, metrics = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        engine.advance_to(2 * HOUR)
        assert metrics.cs_renewal_failures >= 1
        assert server.cache.zone_ns_expiry(name("example.test."), 2 * HOUR) is None


class TestServeStale:
    def test_stale_answer_when_all_paths_blocked(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        # Also block the SLD itself so even direct queries fail.
        attacks.add_window(
            attack_on_zones(mini.tree, [name("example.test.")],
                            start=2 * HOUR, duration=2 * HOUR).windows()[0]
        )
        config = ResilienceConfig.stale_serving()
        server, *_ = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("www.example.test."), RRType.A,
                                          2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.STALE_HIT

    def test_stale_irrs_reach_live_sld_during_attack(self, mini):
        # IRRs expired, root+TLD blocked, but the SLD itself is alive:
        # serve-stale uses the stale NS to go straight to the SLD.
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        config = ResilienceConfig.stale_serving()
        server, *_ = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("mail.example.test."), RRType.A,
                                          2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.ANSWERED

    def test_vanilla_never_serves_stale(self, mini):
        attacks = attack_on_root_and_tlds(mini.tree, start=2 * HOUR,
                                          duration=2 * HOUR)
        attacks.add_window(
            attack_on_zones(mini.tree, [name("example.test.")],
                            start=2 * HOUR, duration=2 * HOUR).windows()[0]
        )
        server, *_ = make_stack(mini, ResilienceConfig.vanilla(), attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        during = server.handle_stub_query(name("www.example.test."), RRType.A,
                                          2.5 * HOUR)
        assert during.outcome is ResolutionOutcome.FAILURE


class TestGapObserver:
    def test_gap_recorded_on_relearn_after_expiry(self, mini):
        observed = []
        server, *_ = make_stack(
            mini, ResilienceConfig.vanilla(),
            gap_observer=lambda zone, gap, ttl: observed.append((zone, gap, ttl)),
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # NS TTL is 1 h; revisit at 3 h -> gap of 2 h.
        server.handle_stub_query(name("mail.example.test."), RRType.A, 3 * HOUR)
        gaps = [entry for entry in observed if entry[0] == name("example.test.")]
        assert len(gaps) == 1
        _, gap, ttl = gaps[0]
        assert gap == pytest.approx(2 * HOUR)
        assert ttl == pytest.approx(HOUR)

    def test_no_gap_while_fresh(self, mini):
        observed = []
        server, *_ = make_stack(
            mini, ResilienceConfig.vanilla(),
            gap_observer=lambda zone, gap, ttl: observed.append(zone),
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 60.0)
        assert name("example.test.") not in observed

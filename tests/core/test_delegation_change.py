"""Tests for resolver recovery when a zone's servers change (IRR reset).

Paper §4: "In the worst case, all servers in the old IRR fail to respond
and the parent zone must be queried to reset the IRR."
"""

import pytest

from repro.core.caching_server import ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.hierarchy.churn import fresh_server_set

from tests.conftest import make_stack
from tests.helpers import HOUR, build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


def migrate_example(mini, decommission=True):
    zone_name = name("example.test.")
    irrs, servers = fresh_server_set(mini.tree, zone_name, ttl=HOUR, count=2,
                                     generation=1)
    mini.tree.migrate_zone_servers(zone_name, irrs, servers,
                                   decommission_old=decommission)
    return irrs


class TestIrrReset:
    def test_recovers_via_parent_after_decommission(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        migrate_example(mini, decommission=True)
        # Cached (now obsolete) NS is still live at t=600; the resolver
        # must fail over to the parent and reset the IRR.
        result = server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        assert result.outcome is ResolutionOutcome.ANSWERED

    def test_recovers_when_old_servers_are_lame(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        migrate_example(mini, decommission=False)
        result = server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        assert result.outcome is ResolutionOutcome.ANSWERED

    def test_cache_holds_new_irrs_after_reset(self, mini):
        server, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        new_irrs = migrate_example(mini)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        cached = server.cache.get(name("example.test."), RRType.NS, 600.0)
        assert cached is not None
        assert set(r.data for r in cached) == set(new_irrs.server_names())

    def test_second_lookup_goes_direct_to_new_servers(self, mini):
        server, engine, network, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        migrate_example(mini)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        before = metrics.cs_demand_queries
        result = server.handle_stub_query(name("www.example.test."), RRType.A, 700.0)
        assert result.outcome is ResolutionOutcome.ANSWERED
        assert metrics.cs_demand_queries == before + 1  # direct, no walk

    def test_renewal_state_dropped_on_reset(self, mini):
        config = ResilienceConfig.refresh_renew("lru", 5)
        server, engine, *_ = make_stack(mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        migrate_example(mini)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        # The zone's renewal credit was forgotten and re-earned fresh;
        # timers now track the new IRR set, which must keep working.
        engine.advance_to(2 * HOUR)
        result = server.handle_stub_query(name("www.example.test."), RRType.A,
                                          2 * HOUR + 10)
        assert not result.failed

    def test_reset_attempted_only_once_per_fetch(self, mini):
        # If the fresh delegation is just as dead (attack), fail cleanly.
        from repro.simulation.attack import attack_on_zones
        server_stack_mini = mini
        attacks = attack_on_zones(
            server_stack_mini.tree, [name("example.test.")],
            start=500.0, duration=10 * HOUR,
        )
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla(), attacks=attacks
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        result = server.handle_stub_query(name("mail.example.test."), RRType.A, 600.0)
        assert result.outcome is ResolutionOutcome.FAILURE
        # Bounded work: the walk terminated (no referral loop).
        assert metrics.cs_demand_queries < 20

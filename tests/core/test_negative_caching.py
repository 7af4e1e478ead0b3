"""Tests for RFC 2308 SOA-driven negative caching."""

import pytest

from repro.core.caching_server import ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.message import Question
from repro.dns.rrtypes import RRType
from repro.dns.zone import ZoneBuilder
from repro.dns.server import AuthoritativeServer
from repro.dns.errors import ZoneConfigError

from tests.conftest import make_stack
from tests.helpers import build_mini_internet, name


def soa_zone(minimum=120.0):
    builder = ZoneBuilder(name("soa.test."), default_ttl=3600)
    builder.add_ns("ns1.soa.test.", "10.8.0.1")
    builder.set_soa(minimum=minimum)
    builder.add_address("www.soa.test.", "10.8.0.10", ttl=300)
    return builder.build()


@pytest.fixture
def mini_with_soa():
    mini = build_mini_internet()
    zone = soa_zone()
    server = AuthoritativeServer(name("ns1.soa.test."), "10.8.0.1")
    mini.tree.add_zone(zone, [server])
    # Delegate soa.test. from the TLD, which was built before this zone
    # existed.
    tld = mini.tree.zone(name("test."))
    tld.add_delegation(zone.infrastructure_records)
    return mini


class TestSoaRecord:
    def test_zone_exposes_soa(self):
        zone = soa_zone(minimum=300)
        assert zone.soa_minimum == 300
        rrset = zone.soa_rrset()
        assert rrset is not None
        assert rrset.rrtype is RRType.SOA
        assert str(rrset.records[0].data).endswith("300")

    def test_invalid_minimum_rejected(self):
        builder = ZoneBuilder(name("x.test."))
        with pytest.raises(ZoneConfigError):
            builder.set_soa(minimum=0)

    def test_negative_answer_carries_soa_not_ns(self):
        zone = soa_zone()
        server = AuthoritativeServer(name("ns1.soa.test."), "10.8.0.1")
        server.serve_zone(zone)
        response = server.respond(Question(name("ghost.soa.test."), RRType.A))
        types = [rrset.rrtype for rrset in response.authority]
        assert types == [RRType.SOA]
        assert response.additional == ()

    def test_zone_without_soa_keeps_legacy_sections(self):
        mini = build_mini_internet()
        server = mini.tree.server_by_name(name("ns1.example.test."))
        response = server.respond(Question(name("ghost.example.test."), RRType.A))
        assert any(r.rrtype is RRType.NS for r in response.authority)


class TestResolverNegativeTtl:
    def test_negative_ttl_follows_soa_minimum(self, mini_with_soa):
        server, engine, network, metrics = make_stack(
            mini_with_soa, ResilienceConfig.vanilla()
        )
        first = server.handle_stub_query(name("ghost.soa.test."), RRType.A, 0.0)
        assert first.outcome is ResolutionOutcome.NXDOMAIN
        queries = metrics.cs_demand_queries
        # Within the 120 s SOA minimum: served from the negative cache.
        second = server.handle_stub_query(name("ghost.soa.test."), RRType.A, 60.0)
        assert second.outcome is ResolutionOutcome.NXDOMAIN
        assert metrics.cs_demand_queries == queries
        # After 120 s the negative entry expired: re-queries the network.
        third = server.handle_stub_query(name("ghost.soa.test."), RRType.A, 200.0)
        assert third.outcome is ResolutionOutcome.NXDOMAIN
        assert metrics.cs_demand_queries > queries

    def test_default_negative_ttl_without_soa(self, mini_with_soa):
        config = ResilienceConfig.vanilla()
        server, engine, network, metrics = make_stack(mini_with_soa, config)
        server.handle_stub_query(name("ghost.example.test."), RRType.A, 0.0)
        queries = metrics.cs_demand_queries
        # Default negative TTL is 3600 s: still negatively cached at 1000 s.
        server.handle_stub_query(name("ghost.example.test."), RRType.A, 1000.0)
        assert metrics.cs_demand_queries == queries

    def test_nodata_also_uses_soa_minimum(self, mini_with_soa):
        server, engine, network, metrics = make_stack(
            mini_with_soa, ResilienceConfig.vanilla()
        )
        first = server.handle_stub_query(name("www.soa.test."), RRType.MX, 0.0)
        assert first.outcome is ResolutionOutcome.NODATA
        queries = metrics.cs_demand_queries
        server.handle_stub_query(name("www.soa.test."), RRType.MX, 60.0)
        assert metrics.cs_demand_queries == queries
        server.handle_stub_query(name("www.soa.test."), RRType.MX, 200.0)
        assert metrics.cs_demand_queries > queries

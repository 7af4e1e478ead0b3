"""Tests for the IRR churn model and server migration."""

import pytest

from repro.dns.errors import LameDelegationError, ZoneConfigError
from repro.dns.message import Question
from repro.dns.rrtypes import RRType
from repro.hierarchy.builder import HierarchyConfig, build_hierarchy
from repro.hierarchy.churn import (
    ChurnEvent,
    ChurnSchedule,
    apply_churn_event,
    fresh_server_set,
    generate_churn,
)

from tests.helpers import build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


class TestFreshServerSet:
    def test_mints_in_bailiwick_servers_with_glue(self, mini):
        irrs, servers = fresh_server_set(mini.tree, name("z.test."), ttl=3600,
                                         count=3, generation=2)
        assert len(servers) == 3
        assert irrs.ns.ttl == 3600
        for server in servers:
            assert server.name.is_subdomain_of(name("z.test."))
            assert "g2" in str(server.name)
            assert irrs.glue_for(server.name) is not None

    def test_addresses_unique_and_outside_builder_space(self, mini):
        irrs, servers = fresh_server_set(mini.tree, name("y.test."), 60, 4, 1)
        addresses = {server.address for server in servers}
        assert len(addresses) == 4
        assert all(address.startswith("172.") for address in addresses)

    def test_addresses_skip_those_the_tree_serves(self, mini):
        first, servers = fresh_server_set(mini.tree, name("example.test."),
                                          3600, 2, 1)
        # Nothing migrated yet: a second mint picks the same addresses.
        again, _ = fresh_server_set(mini.tree, name("example.test."),
                                    3600, 2, 1)
        assert again == first
        mini.tree.migrate_zone_servers(name("example.test."), first, servers)
        _, others = fresh_server_set(mini.tree, name("test."), 3600, 2, 1)
        taken = {server.address for server in servers}
        assert taken.isdisjoint(server.address for server in others)


class TestMigration:
    def test_new_servers_answer_old_go_lame(self, mini):
        zone_name = name("example.test.")
        old_server = mini.tree.server_by_name(name("ns1.example.test."))
        irrs, servers = fresh_server_set(mini.tree, zone_name, 3600, 2, 1)
        mini.tree.migrate_zone_servers(zone_name, irrs, servers)

        # New servers answer authoritatively.
        question = Question(name("www.example.test."), RRType.A)
        response = servers[0].respond(question)
        assert response.authoritative and response.answer

        # Old server is lame for the zone now.
        with pytest.raises(LameDelegationError):
            old_server.respond(question)

    def test_parent_delegation_updated(self, mini):
        zone_name = name("example.test.")
        irrs, servers = fresh_server_set(mini.tree, zone_name, 3600, 2, 1)
        mini.tree.migrate_zone_servers(zone_name, irrs, servers)
        tld = mini.tree.zone(name("test."))
        delegation = tld.delegation_covering(zone_name)
        assert set(delegation.server_names()) == set(irrs.server_names())

    def test_decommission_removes_exclusive_servers_only(self, mini):
        # provider.test.'s servers also serve hosted.test. — migrating
        # provider.test. with decommission must NOT kill them.
        zone_name = name("provider.test.")
        survivor = mini.tree.server_by_name(name("ns1.provider.test."))
        irrs, servers = fresh_server_set(mini.tree, zone_name, 3600, 2, 1)
        mini.tree.migrate_zone_servers(zone_name, irrs, servers,
                                       decommission_old=True)
        assert mini.tree.server_by_name(survivor.name) is not None
        assert survivor.is_authoritative_for(name("hosted.test."))

        # But example.test.'s servers serve nothing else: they disappear.
        zone_name = name("example.test.")
        # First withdraw dept (shared) so old servers become exclusive.
        mini.tree.migrate_zone_servers(
            name("dept.example.test."), *fresh_server_set(
                mini.tree, name("dept.example.test."), 3600, 2, 3
            ),
        )
        irrs2, servers2 = fresh_server_set(mini.tree, zone_name, 3600, 2, 2)
        mini.tree.migrate_zone_servers(zone_name, irrs2, servers2,
                                       decommission_old=True)
        assert mini.tree.server_by_name(name("ns1.example.test.")) is None

    def test_replace_infrastructure_records_validates_zone(self, mini):
        zone = mini.tree.zone(name("example.test."))
        wrong, _ = fresh_server_set(mini.tree, name("other.test."), 60, 2, 1)
        with pytest.raises(ZoneConfigError):
            zone.replace_infrastructure_records(wrong)


class TestChurnGeneration:
    @pytest.fixture(scope="class")
    def built(self):
        return build_hierarchy(
            HierarchyConfig(num_tlds=6, num_slds=60, num_providers=2), seed=4
        )

    def test_events_within_window_and_sorted(self, built):
        schedule = generate_churn(built, start=100.0, end=500.0, zone_count=10,
                                  seed=1)
        times = [event.time for event in schedule.events]
        assert times == sorted(times)
        assert all(100.0 <= time < 500.0 for time in times)

    def test_only_exclusive_own_server_slds_chosen(self, built):
        schedule = generate_churn(built, 0.0, 100.0, zone_count=50, seed=2)
        for event in schedule.events:
            servers = built.tree.servers_for_zone(event.zone)
            assert all(s.zones_served() == (event.zone,) for s in servers)

    def test_deterministic(self, built):
        a = generate_churn(built, 0.0, 100.0, 5, seed=9)
        b = generate_churn(built, 0.0, 100.0, 5, seed=9)
        assert [e.zone for e in a.events] == [e.zone for e in b.events]

    def test_empty_window_rejected(self, built):
        with pytest.raises(ValueError):
            generate_churn(built, 10.0, 10.0, 1)

    def test_apply_event_end_to_end(self, built):
        schedule = generate_churn(built, 0.0, 100.0, 1, seed=3)
        event = schedule.events[0]
        before = set(
            built.tree.zone(event.zone).infrastructure_records.server_names()
        )
        apply_churn_event(built.tree, event)
        after = set(
            built.tree.zone(event.zone).infrastructure_records.server_names()
        )
        assert before.isdisjoint(after)
        assert built.tree.servers_for_zone(event.zone)

    def test_schedule_zones_and_len(self):
        schedule = ChurnSchedule(events=[
            ChurnEvent(5.0, name("b.test.")),
            ChurnEvent(1.0, name("a.test.")),
        ])
        assert len(schedule) == 2
        assert schedule.events[0].time == 1.0  # sorted on construction
        assert schedule.zones() == {name("a.test."), name("b.test.")}

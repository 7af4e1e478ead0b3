"""Tests for the synthetic hierarchy builder."""

import pytest

from repro.dns.name import intern_count, root_name
from repro.dns.rrtypes import RRType
from repro.hierarchy.builder import HierarchyConfig, build_hierarchy

from tests.hierarchy.world_dump import dump_lines


@pytest.fixture(scope="module")
def built():
    config = HierarchyConfig(num_tlds=10, num_slds=80, num_providers=3,
                             third_level_fraction=0.3)
    return build_hierarchy(config, seed=42)


class TestStructure:
    def test_root_exists_with_13ish_servers(self, built):
        hints = built.tree.root_hints()
        assert len(hints.server_names()) == HierarchyConfig().root_server_count \
            or len(hints.server_names()) == 13

    def test_tld_count(self, built):
        assert len(built.tree.tld_names()) == 10

    def test_well_known_gtlds_present(self, built):
        tlds = {str(tld) for tld in built.tree.tld_names()}
        assert {"com.", "net.", "org.", "edu."} <= tlds

    def test_sld_count_matches_config(self, built):
        slds = [z for z in built.tree.zone_names() if z.depth() == 2]
        assert len(slds) == 80  # providers included

    def test_providers_recorded(self, built):
        assert len(built.provider_zones) == 3
        for provider in built.provider_zones:
            assert built.tree.has_zone(provider)

    def test_some_zones_are_provider_hosted(self, built):
        # Provider-hosted zones have NS pointing outside their bailiwick.
        hosted = 0
        for zone in built.tree.zones():
            if zone.name.depth() != 2:
                continue
            irrs = zone.infrastructure_records
            if any(
                not server.is_subdomain_of(zone.name)
                for server in irrs.server_names()
            ):
                hosted += 1
        assert hosted > 5

    def test_third_level_zones_exist(self, built):
        thirds = [z for z in built.tree.zone_names() if z.depth() == 3]
        assert thirds

    def test_every_zone_resolvable_from_parent(self, built):
        # Every non-root zone must be delegated by its parent.
        for zone in built.tree.zones():
            if zone.name.is_root:
                continue
            parent = built.tree.parent_zone(zone.name)
            assert parent is not None
            delegation = parent.delegation_covering(zone.name)
            assert delegation is not None, f"{zone.name} not delegated"
            assert delegation.zone == zone.name

    def test_every_ns_target_has_an_address_somewhere(self, built):
        # NS names either have glue or correspond to a registered server.
        for zone in built.tree.zones():
            for server_name in zone.infrastructure_records.server_names():
                server = built.tree.server_by_name(server_name)
                assert server is not None, f"{server_name} unresolvable"

    def test_catalog_covers_leaf_zones(self, built):
        for zone_name, hosts in built.catalog.items():
            assert hosts, f"{zone_name} has no hosts"
            zone = built.tree.zone(zone_name)
            for host in hosts:
                assert zone.lookup(host, RRType.A) is not None

    def test_leaf_zone_names(self, built):
        leaves = built.leaf_zone_names()
        assert root_name() not in leaves
        assert len(leaves) > 50


class TestDeterminismAndConfig:
    def test_same_seed_same_tree(self):
        config = HierarchyConfig(num_tlds=5, num_slds=20, num_providers=2)
        first = build_hierarchy(config, seed=1)
        second = build_hierarchy(config, seed=1)
        # Past the intern table's end: the second build interns nothing.
        end = intern_count()
        assert list(dump_lines(first, end)) == list(dump_lines(second, end))

    def test_different_seed_different_tree(self):
        config = HierarchyConfig(num_tlds=5, num_slds=20, num_providers=2)
        first = build_hierarchy(config, seed=1)
        second = build_hierarchy(config, seed=2)
        assert set(first.tree.zone_names()) != set(second.tree.zone_names())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HierarchyConfig(num_tlds=0)
        with pytest.raises(ValueError):
            HierarchyConfig(num_slds=2, num_providers=5)
        with pytest.raises(ValueError):
            HierarchyConfig(provider_hosted_fraction=1.5)

    def test_tld_irr_ttls_are_long(self, built):
        # Paper §3.2: zones below the root carry long TTLs.
        for tld in built.tree.tld_names():
            zone = built.tree.zone(tld)
            assert zone.infrastructure_records.ns.ttl >= 86400.0

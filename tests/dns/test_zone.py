"""Tests for zone data and the zone builder."""

import pytest

from repro.dns.errors import ZoneConfigError
from repro.dns.name import Name
from repro.dns.records import ResourceRecord
from repro.dns.rrtypes import RRType
from repro.dns.zone import ZoneBuilder

from tests.helpers import _irrs, name


def simple_zone():
    builder = ZoneBuilder(name("example.test."), default_ttl=3600)
    builder.add_ns("ns1.example.test.", "10.0.0.1")
    builder.add_ns("ns2.example.test.", "10.0.0.2")
    builder.add_address("www.example.test.", "10.0.0.10", ttl=300)
    builder.add_record(
        ResourceRecord(
            name("web.example.test."), RRType.CNAME, 300, name("www.example.test.")
        )
    )
    return builder


class TestZoneBuilder:
    def test_build_requires_ns(self):
        with pytest.raises(ZoneConfigError):
            ZoneBuilder(name("x.test.")).build()

    def test_in_bailiwick_ns_requires_glue(self):
        builder = ZoneBuilder(name("x.test."))
        with pytest.raises(ZoneConfigError):
            builder.add_ns("ns1.x.test.")

    def test_out_of_bailiwick_ns_without_glue_ok(self):
        builder = ZoneBuilder(name("x.test."))
        builder.add_ns("ns1.provider.test.")
        zone = builder.build()
        assert zone.infrastructure_records.glue == ()

    def test_add_ns_record_validates(self):
        builder = ZoneBuilder(name("x.test."))
        with pytest.raises(ZoneConfigError):
            builder.add_ns_record(
                ResourceRecord(name("y.test."), RRType.NS, 60, name("ns.y.test."))
            )

    def test_record_outside_bailiwick_rejected(self):
        builder = simple_zone()
        with pytest.raises(ZoneConfigError):
            builder.add_address("www.other.test.", "10.0.0.3")

    def test_record_inside_delegation_rejected(self):
        builder = simple_zone()
        builder.delegate(_irrs("child.example.test.", [("ns1.child.example.test.", "10.0.1.1")], 3600))
        builder.add_address("www.child.example.test.", "10.0.0.4")
        with pytest.raises(ZoneConfigError):
            builder.build()

    def test_duplicate_delegation_rejected(self):
        builder = simple_zone()
        irrs = _irrs("child.example.test.", [("ns1.child.example.test.", "10.0.1.1")], 3600)
        builder.delegate(irrs)
        with pytest.raises(ZoneConfigError):
            builder.delegate(irrs)

    def test_delegating_apex_rejected(self):
        builder = simple_zone()
        with pytest.raises(ZoneConfigError):
            builder.delegate(
                _irrs("example.test.", [("ns9.example.test.", "10.0.9.9")], 60)
            )


class TestZoneLookup:
    def test_apex_ns_served_from_irrs(self):
        zone = simple_zone().build()
        ns = zone.lookup(name("example.test."), RRType.NS)
        assert ns is not None
        assert len(ns) == 2

    def test_glue_lookup(self):
        zone = simple_zone().build()
        glue = zone.lookup(name("ns1.example.test."), RRType.A)
        assert glue is not None
        assert glue.data_values() == ("10.0.0.1",)

    def test_data_lookup(self):
        zone = simple_zone().build()
        rrset = zone.lookup(name("www.example.test."), RRType.A)
        assert rrset is not None
        assert rrset.ttl == 300

    def test_missing_type_returns_none(self):
        zone = simple_zone().build()
        assert zone.lookup(name("www.example.test."), RRType.MX) is None

    def test_name_exists_includes_cname_and_glue(self):
        zone = simple_zone().build()
        assert zone.name_exists(name("web.example.test."))
        assert zone.name_exists(name("ns1.example.test."))
        assert not zone.name_exists(name("nothere.example.test."))

    def test_name_exists_includes_empty_non_terminals(self):
        builder = simple_zone()
        builder.add_address("a.b.c.example.test.", "10.0.0.20")
        builder.delegate(_irrs("d.e.example.test.", [("ns.d.e.example.test.", "10.0.1.1")], 3600))
        zone = builder.build()
        for existing in ("a.b.c", "b.c", "c", "d.e", "e"):
            assert zone.name_exists(name(f"{existing}.example.test."))
        assert zone.name_exists(name("example.test."))
        assert not zone.name_exists(name("ns.d.e.example.test."))
        assert not zone.name_exists(name("test."))

    def test_delegation_covering(self):
        builder = simple_zone()
        child = _irrs("child.example.test.", [("ns1.child.example.test.", "10.0.1.1")], 3600)
        builder.delegate(child)
        zone = builder.build()
        found = zone.delegation_covering(name("deep.child.example.test."))
        assert found is not None and found.zone == name("child.example.test.")
        assert zone.delegation_covering(name("www.example.test.")) is None

    def test_record_count(self):
        zone = simple_zone().build()
        # 2 NS + 2 glue + www A + web CNAME
        assert zone.record_count() == 6


class TestZoneOperatorActions:
    def test_set_infrastructure_ttl_changes_only_irrs(self):
        zone = simple_zone().build()
        zone.set_infrastructure_ttl(86400 * 3)
        assert zone.infrastructure_records.ns.ttl == 86400 * 3
        data = zone.lookup(name("www.example.test."), RRType.A)
        assert data.ttl == 300  # data records untouched

    def test_infrastructure_sections_cache_invalidated(self):
        zone = simple_zone().build()
        before = zone.infrastructure_sections()
        zone.set_infrastructure_ttl(86400)
        after = zone.infrastructure_sections()
        assert before[0][0].ttl != after[0][0].ttl

    def test_set_delegation_ttl(self):
        builder = simple_zone()
        builder.delegate(
            _irrs("child.example.test.", [("ns1.child.example.test.", "10.0.1.1")], 3600)
        )
        zone = builder.build()
        zone.set_delegation_ttl(name("child.example.test."), 7200)
        delegation = zone.delegation_covering(name("child.example.test."))
        assert delegation.ns.ttl == 7200

    def test_replace_delegation(self):
        builder = simple_zone()
        builder.delegate(
            _irrs("child.example.test.", [("ns1.child.example.test.", "10.0.1.1")], 3600)
        )
        zone = builder.build()
        replacement = _irrs(
            "child.example.test.", [("ns9.child.example.test.", "10.0.9.9")], 3600
        )
        zone.replace_delegation(replacement)
        delegation = zone.delegation_covering(name("child.example.test."))
        assert str(delegation.server_names()[0]) == "ns9.child.example.test."

    def test_replace_unknown_delegation_raises(self):
        zone = simple_zone().build()
        with pytest.raises(KeyError):
            zone.replace_delegation(
                _irrs("ghost.example.test.", [("ns1.ghost.example.test.", "10.0.2.1")], 60)
            )

    def test_irr_snapshot_roundtrip(self):
        zone = simple_zone().build()
        snapshot = zone.irr_snapshot()
        zone.set_infrastructure_ttl(999999)
        zone.restore_irr_snapshot(snapshot)
        assert zone.infrastructure_records.ns.ttl == 3600

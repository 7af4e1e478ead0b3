"""Tests for the simulated DNSSEC material and its IRR integration."""

import pytest

from repro.core.config import ResilienceConfig
from repro.dns.dnssec import make_dnskey_rrset, make_ds_rrset, sign_irrs
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_root_and_tlds

from tests.conftest import make_stack
from tests.helpers import HOUR, _irrs, name


class TestMaterial:
    def test_dnskey_rrset_has_ksk_and_zsk(self):
        rrset = make_dnskey_rrset(name("x.test."), ttl=3600)
        assert rrset.rrtype is RRType.DNSKEY
        assert len(rrset) == 2
        values = " ".join(str(v) for v in rrset.data_values())
        assert "ksk-" in values and "zsk-" in values

    def test_ds_rrset(self):
        rrset = make_ds_rrset(name("x.test."), ttl=60)
        assert rrset.rrtype is RRType.DS
        assert rrset.ttl == 60

    def test_generations_differ(self):
        g0 = make_dnskey_rrset(name("x.test."), 60, generation=0)
        g1 = make_dnskey_rrset(name("x.test."), 60, generation=1)
        assert not g0.same_data(g1)


class TestSignIrrs:
    def test_sign_attaches_dnskey_and_ds(self):
        irrs = _irrs("x.test.", [("ns1.x.test.", "10.0.0.1")], 3600)
        signed = sign_irrs(irrs)
        assert signed.is_signed
        types = {rrset.rrtype for rrset in signed.dnssec}
        assert types == {RRType.DNSKEY, RRType.DS}
        assert not irrs.is_signed  # original untouched

    def test_dnssec_ttls_follow_ns(self):
        irrs = _irrs("x.test.", [("ns1.x.test.", "10.0.0.1")], 1234)
        signed = sign_irrs(irrs)
        assert all(rrset.ttl == 1234 for rrset in signed.dnssec)

    def test_with_ttl_covers_dnssec(self):
        signed = sign_irrs(_irrs("x.test.", [("ns1.x.test.", "10.0.0.1")], 60))
        longer = signed.with_ttl(86400)
        assert all(rrset.ttl == 86400 for rrset in longer.dnssec)

    def test_record_count_includes_dnssec(self):
        irrs = _irrs("x.test.", [("ns1.x.test.", "10.0.0.1")], 60)
        assert sign_irrs(irrs).record_count() == irrs.record_count() + 3

    def test_non_dnssec_rrset_rejected(self):
        irrs = _irrs("x.test.", [("ns1.x.test.", "10.0.0.1")], 60)
        bogus = RRset.from_records(
            [ResourceRecord(name("x.test."), RRType.TXT, 60, "nope")]
        )
        with pytest.raises(ValueError):
            InfrastructureRecordSet(irrs.zone, irrs.ns, irrs.glue, (bogus,))


class TestChainCheck:
    """The chain rule a validating lookup obeys, through the resolver.

    ``CachingServer._chain_keys_available`` is its one implementation:
    every signed zone on the chain needs a live DNSKEY, refetched when
    missing, and the root's keys are the trust anchor.
    """

    def _warm(self, signed_mini, attacks=None):
        """A server that resolved www.example.test. and so holds the
        keys of test. and example.test."""
        server, _, _, metrics = make_stack(
            signed_mini, ResilienceConfig.vanilla(), attacks=attacks
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        return server, metrics

    def test_verifiable_when_all_keys_present(self, signed_mini):
        server, metrics = self._warm(signed_mini)
        sent = metrics.total_outgoing
        assert server._chain_keys_available(name("www.example.test."), 60.0)
        assert metrics.total_outgoing == sent  # no upstream query

    def test_broken_when_ancestor_key_missing(self, signed_mini):
        attacks = attack_on_root_and_tlds(
            signed_mini.tree, start=HOUR, duration=6 * HOUR
        )
        server, metrics = self._warm(signed_mini, attacks=attacks)
        server.cache.remove(name("test."), RRType.DNSKEY)
        sent = metrics.total_outgoing
        assert not server._chain_keys_available(
            name("www.example.test."), 2 * HOUR
        )
        assert metrics.total_outgoing > sent  # the refetch was tried

    def test_unsigned_zones_need_no_keys(self, signed_mini):
        server, metrics = self._warm(signed_mini)
        sent = metrics.total_outgoing
        # alt. is unsigned: nothing on www.alt.'s chain below the root
        # needs a key, so nothing is probed.
        assert server._chain_keys_available(name("www.alt."), 60.0)
        assert metrics.total_outgoing == sent
        assert server.cache.get(name("alt."), RRType.DNSKEY, 60.0) is None

"""Simulated DNSSEC material (paper §6, deployment issues).

The paper notes that DNSSEC "introduces a number of new records for
authentication.  Some of them can be classified as new infrastructure
resource records.  Thus under a DNSSEC deployment we extend the refresh,
renewal and long-TTL techniques to accommodate these new IRRs."

This module provides exactly the slice of DNSSEC the simulator needs:
DNSKEY and DS RRsets whose *rdata are opaque tokens*, not real
cryptographic material.  What the evaluation measures is cache/TTL
behaviour of the records and the availability consequences of a broken
chain — neither depends on actual signatures, so none are computed
(documented substitution, see DESIGN.md).

Simplification: a signed zone's IRR bundle carries both its DNSKEY set
and its DS set (canonically the DS lives only at the parent).  Both ride
the same referral/answer sections either way, so cache dynamics are
unchanged.
"""

from __future__ import annotations

from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType


def make_dnskey_rrset(zone: Name, ttl: float, generation: int = 0) -> RRset:
    """The zone's (simulated) key set: one KSK and one ZSK token."""
    return RRset.from_records(
        [
            ResourceRecord(zone, RRType.DNSKEY, ttl,
                           f"ksk-{zone}-g{generation}"),
            ResourceRecord(zone, RRType.DNSKEY, ttl,
                           f"zsk-{zone}-g{generation}"),
        ]
    )


def make_ds_rrset(zone: Name, ttl: float, generation: int = 0) -> RRset:
    """The delegation-signer digest the parent serves for ``zone``."""
    return RRset.from_records(
        [ResourceRecord(zone, RRType.DS, ttl, f"ds-{zone}-g{generation}")]
    )


def sign_irrs(
    irrs: InfrastructureRecordSet, generation: int = 0
) -> InfrastructureRecordSet:
    """Attach DNSKEY + DS infrastructure sets to a zone's IRRs.

    TTLs follow the NS set, so the long-TTL override covers them too.
    """
    ttl = irrs.ns.ttl
    return irrs.with_dnssec(
        (
            make_dnskey_rrset(irrs.zone, ttl, generation),
            make_ds_rrset(irrs.zone, ttl, generation),
        )
    )


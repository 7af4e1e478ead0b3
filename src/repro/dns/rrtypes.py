"""Resource-record types and classes.

Only the types the paper's evaluation touches are modelled, plus a few
common ones so realistic zone files can be expressed (MX / TXT / CNAME /
SOA appear in real traces even though the simulator mostly moves A and NS
records around).
"""

from __future__ import annotations

import enum


class RRType(enum.IntEnum):
    """DNS RR TYPE values (RFC 1035 / 3596)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    # DNSSEC types, recognised so the Section-6 "deployment issues"
    # extension (classifying DNSSEC records as infrastructure records)
    # can be expressed.
    DS = 43
    RRSIG = 46
    DNSKEY = 48

    def is_address(self) -> bool:
        """True for types that carry a host address (A / AAAA)."""
        return self in (RRType.A, RRType.AAAA)


#: Bits reserved for the rrtype in a packed ``(name.iid << RRTYPE_BITS) |
#: rrtype`` cache key.  Every modelled type must fit; the assertion below
#: keeps a future type addition from silently corrupting packed keys.
RRTYPE_BITS = 6

for _rrtype in RRType:
    if int(_rrtype) >= (1 << RRTYPE_BITS):  # pragma: no cover - layout guard
        raise ImportError(
            f"RRType.{_rrtype.name} exceeds RRTYPE_BITS; "
            f"widen the packed-key layout"
        )
del _rrtype


class RRClass(enum.IntEnum):
    """DNS CLASS values.  Everything in this project is IN."""

    IN = 1
    CH = 3

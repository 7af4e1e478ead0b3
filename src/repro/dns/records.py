"""Resource records, RRsets and infrastructure record (IRR) bundles.

The paper's central object is the *infrastructure resource record set* of
a zone: the NS records naming the zone's authoritative servers together
with the address (A) records of those servers.
:class:`InfrastructureRecordSet` packages exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.dns.name import Name
from repro.dns.rrtypes import RRTYPE_BITS, RRClass, RRType


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single DNS resource record.

    ``data`` is a :class:`~repro.dns.name.Name` for name-valued types
    (NS, CNAME, PTR, SRV targets) and a string for everything else
    (dotted-quad text for A, arbitrary text for TXT...).

    ``ttl`` is the record's time-to-live in seconds as published by the
    authoritative zone; caches track the remaining lifetime separately.
    """

    name: Name
    rrtype: RRType
    ttl: float
    data: Name | str
    rrclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"negative TTL {self.ttl} on {self.name}")
        name_valued = self.rrtype in (RRType.NS, RRType.CNAME, RRType.PTR)
        if name_valued and not isinstance(self.data, Name):
            raise TypeError(f"{self.rrtype.name} rdata must be a Name")

    def with_ttl(self, ttl: float) -> "ResourceRecord":
        """A copy of this record carrying a different TTL."""
        return replace(self, ttl=ttl)

    def wire_size(self) -> int:
        """Approximate RFC 1035 wire encoding size in octets.

        Owner name + TYPE/CLASS/TTL/RDLENGTH (10) + rdata.  Name-valued
        rdata uses the name's wire length; A/AAAA their fixed sizes; text
        rdata its byte length.  No compression is modelled (the counts
        feed traffic *ratios*, where the constant factor cancels).
        """
        if isinstance(self.data, Name):
            rdata = self.data.wire_length()
        elif self.rrtype == RRType.A:
            rdata = 4
        elif self.rrtype == RRType.AAAA:
            rdata = 16
        else:
            rdata = len(str(self.data))
        return self.name.wire_length() + 10 + rdata

    def key(self) -> tuple[Name, RRType]:
        """The (owner name, type) cache key this record files under."""
        return (self.name, self.rrtype)

    def __str__(self) -> str:
        return f"{self.name} {int(self.ttl)} {self.rrclass.name} {self.rrtype.name} {self.data}"


@dataclass(frozen=True, slots=True)
class RRset:
    """All records sharing one owner name and type.

    DNS caches operate on RRsets, not individual records (RFC 2181 §5):
    an answer either replaces the whole set or none of it.  All member
    records must agree on name, type and TTL.
    """

    name: Name
    rrtype: RRType
    ttl: float
    records: tuple[ResourceRecord, ...]
    _data_key: tuple = field(init=False, repr=False, compare=False, hash=False)
    _key: tuple = field(init=False, repr=False, compare=False, hash=False)
    _ikey: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("an RRset must contain at least one record")
        # ``is``: names are interned, so equal names are one object.
        data: list[Name | str] = []
        for record in self.records:
            if record.name is not self.name or record.rrtype != self.rrtype:
                raise ValueError(
                    f"record {record} does not belong in RRset "
                    f"({self.name}, {self.rrtype.name})"
                )
            data.append(record.data)
        # Precomputed so the cache's hot same-data comparison is O(1)-ish
        # and ``key()`` allocates no tuple on the put path.
        object.__setattr__(self, "_data_key", tuple(data))
        object.__setattr__(self, "_key", (self.name, self.rrtype))
        object.__setattr__(
            self, "_ikey", (self.name.iid << RRTYPE_BITS) | int(self.rrtype)
        )

    @classmethod
    def from_records(cls, records: Iterable[ResourceRecord]) -> "RRset":
        """Bundle records into an RRset, normalising TTLs to the minimum.

        RFC 2181 §5.2: records of one RRset should share a TTL; when they
        do not, resolvers treat the set as having the lowest.  A lone
        record is already sorted and normalised, so it is the set's one
        member as it stands: most sets a hierarchy build makes are a
        host's single A record.
        """
        record_list = list(records)
        if len(record_list) == 1:
            record = record_list[0]
            return cls(name=record.name, rrtype=record.rrtype, ttl=record.ttl,
                       records=(record,))
        if not record_list:
            raise ValueError("cannot build an RRset from no records")
        record_list.sort(key=lambda r: str(r.data))
        ttl = min(record.ttl for record in record_list)
        name = record_list[0].name
        rrtype = record_list[0].rrtype
        normalised = tuple(
            record if record.ttl == ttl else record.with_ttl(ttl)
            for record in record_list
        )
        return cls(name=name, rrtype=rrtype, ttl=ttl, records=normalised)

    def with_ttl(self, ttl: float) -> "RRset":
        """A copy of this RRset (and every member) with a new TTL."""
        return RRset(
            name=self.name,
            rrtype=self.rrtype,
            ttl=ttl,
            records=tuple(record.with_ttl(ttl) for record in self.records),
        )

    def data_values(self) -> tuple[Name | str, ...]:
        """The rdata values, in canonical order."""
        return self._data_key

    def same_data(self, other: "RRset") -> bool:
        """True when both sets carry identical rdata (TTL ignored)."""
        return (
            self.name == other.name
            and self.rrtype == other.rrtype
            and self._data_key == other._data_key
        )

    def key(self) -> tuple[Name, RRType]:
        """The (owner name, type) cache key (precomputed)."""
        return self._key

    def ikey(self) -> int:
        """The packed intern-id cache key (precomputed).

        Layout matches :func:`repro.core.cache.cache_key`:
        ``(name.iid << RRTYPE_BITS) | rrtype``.
        """
        return self._ikey

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


_DNSSEC_IRR_TYPES = (RRType.DNSKEY, RRType.DS, RRType.RRSIG)


@dataclass(frozen=True, slots=True)
class InfrastructureRecordSet:
    """The IRRs of one zone: its NS RRset plus server address RRsets.

    This is the unit the paper's refresh / renewal / long-TTL schemes act
    on.  ``glue`` holds the A RRsets for the in-bailiwick server names
    (out-of-bailiwick server addresses live in their own zones and are
    resolved separately).

    ``dnssec`` carries the zone's DNSSEC infrastructure records (DNSKEY /
    DS) for signed zones — paper §6 classifies these as new IRRs that the
    refresh/renewal/long-TTL techniques must also cover.
    """

    zone: Name
    ns: RRset
    glue: tuple[RRset, ...] = field(default=())
    dnssec: tuple[RRset, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.ns.rrtype != RRType.NS:
            raise ValueError("IRR set requires an NS RRset")
        if self.ns.name != self.zone:
            raise ValueError(
                f"NS RRset owner {self.ns.name} does not match zone {self.zone}"
            )
        for rrset in self.glue:
            if not rrset.rrtype.is_address():
                raise ValueError(f"glue RRset {rrset.name} is not an address set")
        for rrset in self.dnssec:
            if rrset.rrtype not in _DNSSEC_IRR_TYPES:
                raise ValueError(
                    f"{rrset.rrtype.name} RRset is not DNSSEC infrastructure"
                )

    @property
    def is_signed(self) -> bool:
        """Whether the zone serves DNSSEC infrastructure records."""
        return bool(self.dnssec)

    def server_names(self) -> tuple[Name, ...]:
        """The authoritative server names listed in the NS RRset."""
        return tuple(record.data for record in self.ns)  # type: ignore[misc]

    def glue_for(self, server: Name) -> RRset | None:
        """The glue address RRset for ``server``, if carried."""
        for rrset in self.glue:
            if rrset.name == server:
                return rrset
        return None

    def all_rrsets(self) -> tuple[RRset, ...]:
        """NS, glue and DNSSEC sets — everything a cache stores."""
        return (self.ns, *self.glue, *self.dnssec)

    def record_count(self) -> int:
        """Total individual records across NS, glue and DNSSEC sets."""
        return sum(len(rrset) for rrset in self.all_rrsets())

    def min_ttl(self) -> float:
        """The smallest TTL across the IRR sets (governs cache lifetime)."""
        return min(rrset.ttl for rrset in self.all_rrsets())

    def with_ttl(self, ttl: float) -> "InfrastructureRecordSet":
        """A copy with every member RRset re-stamped to ``ttl``.

        This is the zone-operator "long TTL" knob from the paper: only
        infrastructure records are touched (DNSSEC IRRs included, per the
        §6 extension).
        """
        return InfrastructureRecordSet(
            zone=self.zone,
            ns=self.ns.with_ttl(ttl),
            glue=tuple(rrset.with_ttl(ttl) for rrset in self.glue),
            dnssec=tuple(rrset.with_ttl(ttl) for rrset in self.dnssec),
        )

    def with_dnssec(self, dnssec: tuple[RRset, ...]) -> "InfrastructureRecordSet":
        """A copy carrying the given DNSSEC infrastructure sets."""
        return InfrastructureRecordSet(
            zone=self.zone, ns=self.ns, glue=self.glue, dnssec=dnssec
        )

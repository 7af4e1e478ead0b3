"""Authoritative zone data: apex records, in-zone data, delegations, glue.

A :class:`Zone` owns the records for every name from its apex down to (but
not across) its delegation cuts.  It knows three kinds of things:

* its **apex IRRs** — its own NS RRset plus glue addresses for its
  in-bailiwick server names (the child-side copy of the zone's
  infrastructure records);
* **authoritative data** — every other RRset inside the zone;
* **delegations** — for each child zone, the parent-side copy of the
  child's IRRs (NS plus whatever glue the parent carries).

Build zones through :class:`ZoneBuilder`, which validates bailiwick and
delegation invariants before the zone is used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.annotations import invalidates
from repro.dns.errors import ZoneConfigError
from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType

if TYPE_CHECKING:
    from repro.dns.message import Message


class Zone:
    """One DNS zone's authoritative content.

    Instances are produced by :class:`ZoneBuilder`; treat them as
    read-mostly.  The only sanctioned mutation is
    :meth:`set_infrastructure_ttl`, which models the zone operator
    raising the TTL of the zone's own IRRs (the paper's "long TTL" knob).
    """

    # The audited memo contract (enforced by `repro audit`, REP010):
    # every method that mutates a dependency field must reach the
    # declared invalidator, or the memoized responses go stale.
    # repro: memo(response: field=_response_cache,
    #   depends=[_apex_irrs, _rrsets, _delegations, _existing_names,
    #   soa_minimum], invalidator=_invalidate_response_cache)

    def __init__(
        self,
        name: Name,
        apex_irrs: InfrastructureRecordSet,
        rrsets: dict[tuple[Name, RRType], RRset],
        delegations: dict[Name, InfrastructureRecordSet],
        soa_minimum: float | None = None,
    ) -> None:
        self.name = name
        self._apex_irrs = apex_irrs
        self._rrsets = rrsets
        self._delegations = delegations
        # Memoized responses keyed by packed (qname iid, rrtype) question
        # key.  Zone content only changes through the operator-action
        # methods below, each of which clears this; replay traffic asks
        # the same few questions millions of times, so answering from
        # here turns the whole answering algorithm into one dict hit.
        self._response_cache: dict[int, Message] = {}
        #: RFC 2308 negative-caching TTL; None when the zone has no SOA.
        self.soa_minimum = soa_minimum
        # Every name that exists in the zone (for NXDOMAIN decisions),
        # including empty non-terminals and delegation points.
        existing: set[Name] = {name}
        for owner, _ in rrsets:
            existing.update(self._names_down_to(owner))
        for child in delegations:
            existing.update(self._names_down_to(child))
        for rrset in apex_irrs.glue:
            existing.update(self._names_down_to(rrset.name))
        self._existing_names = existing

    def _names_down_to(self, owner: Name) -> tuple[Name, ...]:
        """``owner`` and its ancestors strictly below the apex; none when
        ``owner`` is not below the apex."""
        chain = owner.ancestors()
        cut = len(owner.labels) - len(self.name.labels)
        if cut > 0 and chain[cut] is self.name:
            return chain[:cut]
        return ()

    def _add_existing(self, owner: Name) -> None:
        self._existing_names.update(self._names_down_to(owner))
        # Memoized NXDOMAIN answers key off name existence; a name
        # appearing after the fact (new glue) must drop them.
        self._invalidate_response_cache()

    @invalidates("response")
    def _invalidate_response_cache(self) -> None:
        """Drop every memoized response.

        The single funnel all operator actions go through; `repro audit`
        proves each dependency-field mutator reaches it.
        """
        self._response_cache.clear()

    # -- reads -----------------------------------------------------------

    @property
    def infrastructure_records(self) -> InfrastructureRecordSet:
        """The zone's own (child-side) IRR set."""
        return self._apex_irrs

    def soa_rrset(self) -> RRset | None:
        """The apex SOA RRset, if the zone has one."""
        return self._rrsets.get((self.name, RRType.SOA))

    def infrastructure_sections(self) -> tuple[tuple[RRset, ...], tuple[RRset, ...]]:
        """The apex IRRs as (authority, additional) response sections."""
        irrs = self._apex_irrs
        # DNSSEC IRRs (paper §6) ride the additional section so the
        # refresh/renewal machinery sees them with every answer.
        return (irrs.ns,), irrs.glue + irrs.dnssec

    def cached_response(self, question_key: int) -> Message | None:
        """A memoized response for a packed question key, if one is stored."""
        return self._response_cache.get(question_key)

    def store_response(self, question_key: int, message: Message) -> None:
        """Memoize the response for a question against this zone's content."""
        self._response_cache[question_key] = message

    def lookup(self, name: Name, rrtype: RRType) -> RRset | None:
        """The authoritative RRset for (name, type), if present.

        Apex NS and glue lookups are served from the IRR set so there is a
        single source of truth for infrastructure data.
        """
        if name == self.name and rrtype == RRType.NS:
            return self._apex_irrs.ns
        if name == self.name and rrtype in (RRType.DNSKEY, RRType.DS):
            for rrset in self._apex_irrs.dnssec:
                if rrset.rrtype == rrtype:
                    return rrset
            return None
        if rrtype.is_address():
            glue = self._apex_irrs.glue_for(name)
            if glue is not None and glue.rrtype == rrtype:
                return glue
        return self._rrsets.get((name, rrtype))

    def name_exists(self, name: Name) -> bool:
        """Whether ``name`` exists in this zone (any type, or non-terminal)."""
        return name in self._existing_names

    def delegation_covering(self, name: Name) -> InfrastructureRecordSet | None:
        """The delegation whose subtree contains ``name``, if any.

        Returns the parent-side IRRs for the deepest child cut that is an
        ancestor of (or equals) ``name``.
        """
        # Walk from name upward to (exclusive) the apex.
        current = name
        while current != self.name:
            child = self._delegations.get(current)
            if child is not None:
                return child
            if current.is_root:
                break
            current = current.parent()
        return None

    def delegations(self) -> Iterator[InfrastructureRecordSet]:
        """All child delegations (parent-side IRR copies)."""
        return iter(self._delegations.values())

    def child_zone_names(self) -> tuple[Name, ...]:
        """Names of all directly delegated child zones."""
        return tuple(self._delegations)

    def rrsets(self) -> Iterator[RRset]:
        """All non-infrastructure authoritative RRsets."""
        return iter(self._rrsets.values())

    def record_count(self) -> int:
        """Total records: apex IRRs + data + delegation copies."""
        total = self._apex_irrs.record_count()
        total += sum(len(rrset) for rrset in self._rrsets.values())
        total += sum(irrs.record_count() for irrs in self._delegations.values())
        return total

    # -- operator actions --------------------------------------------------

    def set_infrastructure_ttl(self, ttl: float) -> None:
        """Raise/replace the TTL on this zone's own IRRs (long-TTL scheme).

        Only infrastructure records change; data records keep their TTLs,
        so CDN-style short-TTL host records are unaffected (paper §4).
        """
        self._apex_irrs = self._apex_irrs.with_ttl(ttl)
        self._invalidate_response_cache()

    def replace_infrastructure_records(self, irrs: InfrastructureRecordSet) -> None:
        """Swap the zone's own IRR set (operator changed name servers).

        Raises:
            ZoneConfigError: when the new set belongs to a different zone.
        """
        if irrs.zone != self.name:
            raise ZoneConfigError(
                f"IRRs for {irrs.zone} cannot serve zone {self.name}"
            )
        self._apex_irrs = irrs
        self._invalidate_response_cache()
        for rrset in irrs.glue:
            self._add_existing(rrset.name)

    def set_delegation_ttl(self, child: Name, ttl: float) -> None:
        """Re-stamp the parent-side copy of ``child``'s IRRs.

        Raises:
            KeyError: when ``child`` is not delegated from this zone.
        """
        self._delegations[child] = self._delegations[child].with_ttl(ttl)
        self._invalidate_response_cache()

    def irr_snapshot(self) -> tuple:
        """Opaque snapshot of apex IRRs and delegation copies.

        Pair with :meth:`restore_irr_snapshot`; lets experiment harnesses
        apply the long-TTL override and undo it afterwards so schemes can
        share one built hierarchy.
        """
        return (self._apex_irrs, dict(self._delegations))

    def restore_irr_snapshot(self, snapshot: tuple) -> None:
        """Undo TTL overrides applied since :meth:`irr_snapshot`."""
        apex, delegations = snapshot
        self._apex_irrs = apex
        self._delegations = delegations
        self._invalidate_response_cache()

    def replace_delegation(self, irrs: InfrastructureRecordSet) -> None:
        """Point an existing delegation at a new server set.

        Models the parent reclaiming/transferring a delegation (paper §6
        deployment discussion).

        Raises:
            KeyError: when the zone has no delegation for ``irrs.zone``.
        """
        if irrs.zone not in self._delegations:
            raise KeyError(f"{self.name} does not delegate {irrs.zone}")
        self._delegations[irrs.zone] = irrs
        self._invalidate_response_cache()

    def add_delegation(self, irrs: InfrastructureRecordSet) -> None:
        """Delegate a new child zone after the fact (zone graft).

        Models a registrant registering a fresh name under this zone —
        the entry point the NXNS adversary uses to plant its zone.

        Raises:
            ZoneConfigError: when the child is not a direct child of the
                apex, or is already delegated.
        """
        child = irrs.zone
        if child.parent() != self.name:
            raise ZoneConfigError(
                f"{child} is not a direct child of {self.name}"
            )
        if child in self._delegations:
            raise ZoneConfigError(f"{self.name} already delegates {child}")
        self._delegations[child] = irrs
        self._add_existing(child)

    def remove_delegation(self, child: Name) -> InfrastructureRecordSet:
        """Withdraw a delegation added by :meth:`add_delegation`.

        Returns the removed parent-side IRRs (so a graft can be undone
        symmetrically).

        Raises:
            KeyError: when ``child`` is not delegated from this zone.
        """
        if child not in self._delegations:
            raise KeyError(f"{self.name} does not delegate {child}")
        irrs = self._delegations.pop(child)
        self._existing_names.discard(child)
        self._invalidate_response_cache()
        return irrs

    def __repr__(self) -> str:
        return (
            f"Zone({self.name}, rrsets={len(self._rrsets)}, "
            f"delegations={len(self._delegations)})"
        )


class ZoneBuilder:
    """Incrementally assemble and validate a :class:`Zone`.

    Usage::

        builder = ZoneBuilder(Name.from_text("ucla.edu"))
        builder.add_ns("ns1.ucla.edu", "164.67.128.1", ttl=86400)
        builder.add_record(ResourceRecord(...))
        builder.delegate(child_irrs)
        zone = builder.build()
    """

    def __init__(self, name: Name, default_ttl: float = 3600.0) -> None:
        self.name = name
        self.default_ttl = default_ttl
        self._ns_records: list[ResourceRecord] = []
        self._glue: dict[Name, list[ResourceRecord]] = {}
        self._records: dict[tuple[Name, RRType], list[ResourceRecord]] = {}
        self._delegations: dict[Name, InfrastructureRecordSet] = {}
        self._dnssec: tuple[RRset, ...] = ()
        self._soa_minimum: float | None = None

    def set_dnssec(self, rrsets: tuple[RRset, ...]) -> "ZoneBuilder":
        """Attach DNSSEC infrastructure sets to the zone's apex IRRs."""
        self._dnssec = rrsets
        return self

    def set_soa(
        self,
        mname: Name | str | None = None,
        rname: str = "hostmaster",
        serial: int = 1,
        minimum: float = 3600.0,
        ttl: float | None = None,
    ) -> "ZoneBuilder":
        """Give the zone an SOA record (drives RFC 2308 negative TTLs).

        ``minimum`` is the negative-caching TTL resolvers honour for
        NXDOMAIN/NODATA answers from this zone.
        """
        if minimum <= 0:
            raise ZoneConfigError("SOA minimum must be positive")
        primary = (
            Name.from_text(mname) if isinstance(mname, str)
            else mname or self.name.child("ns1")
        )
        ttl_value = self.default_ttl if ttl is None else ttl
        rdata = f"{primary} {rname}.{self.name} {serial} {int(minimum)}"
        record = ResourceRecord(self.name, RRType.SOA, ttl_value, rdata)
        self._records[(self.name, RRType.SOA)] = [record]
        self._soa_minimum = minimum
        return self

    def add_ns(
        self,
        server: Name | str,
        address: str | None = None,
        ttl: float | None = None,
    ) -> "ZoneBuilder":
        """Declare an authoritative server for this zone's apex.

        ``address`` must be given when the server name is in-bailiwick
        (glue is then mandatory); out-of-bailiwick servers may omit it.
        """
        server_name = Name.from_text(server) if isinstance(server, str) else server
        ttl_value = self.default_ttl if ttl is None else ttl
        self._ns_records.append(
            ResourceRecord(self.name, RRType.NS, ttl_value, server_name)
        )
        in_bailiwick = server_name.is_subdomain_of(self.name)
        if address is not None:
            self._glue.setdefault(server_name, []).append(
                ResourceRecord(server_name, RRType.A, ttl_value, address)
            )
        elif in_bailiwick:
            raise ZoneConfigError(
                f"in-bailiwick server {server_name} of {self.name} needs glue"
            )
        return self

    def add_ns_record(self, record: ResourceRecord) -> "ZoneBuilder":
        """Add a pre-built apex NS record (for out-of-bailiwick servers).

        No glue is required or recorded; resolvers must chase the server
        name through its own zone.
        """
        if record.rrtype != RRType.NS or record.name != self.name:
            raise ZoneConfigError(
                f"add_ns_record needs an apex NS record, got {record}"
            )
        self._ns_records.append(record)
        return self

    def add_record(self, record: ResourceRecord) -> "ZoneBuilder":
        """Add an authoritative data record (must be in-bailiwick)."""
        if not record.name.is_subdomain_of(self.name):
            raise ZoneConfigError(
                f"{record.name} is outside zone {self.name}"
            )
        self._records.setdefault(record.key(), []).append(record)
        return self

    def add_address(
        self, name: Name | str, address: str, ttl: float | None = None
    ) -> "ZoneBuilder":
        """Convenience: add an A record for a host in this zone."""
        owner = Name.from_text(name) if isinstance(name, str) else name
        ttl_value = self.default_ttl if ttl is None else ttl
        return self.add_record(ResourceRecord(owner, RRType.A, ttl_value, address))

    def delegate(self, child_irrs: InfrastructureRecordSet) -> "ZoneBuilder":
        """Record a delegation: the parent-side copy of a child's IRRs."""
        child = child_irrs.zone
        if child == self.name:
            raise ZoneConfigError("a zone cannot delegate its own apex")
        if not child.is_subdomain_of(self.name):
            raise ZoneConfigError(f"{child} is not under {self.name}")
        if child in self._delegations:
            raise ZoneConfigError(f"duplicate delegation for {child}")
        self._delegations[child] = child_irrs
        return self

    def build(self) -> Zone:
        """Validate and produce the zone.

        Raises:
            ZoneConfigError: when the apex has no NS records, or a data
                record falls inside a delegated subtree.
        """
        if not self._ns_records:
            raise ZoneConfigError(f"zone {self.name} has no apex NS records")
        ns_rrset = RRset.from_records(self._ns_records)
        glue_rrsets = tuple(
            RRset.from_records(records) for records in self._glue.values()
        )
        apex = InfrastructureRecordSet(self.name, ns_rrset, glue_rrsets,
                                       self._dnssec)

        rrsets: dict[tuple[Name, RRType], RRset] = {}
        for key, records in self._records.items():
            owner, _ = key
            for child in self._delegations:
                if owner.is_subdomain_of(child):
                    raise ZoneConfigError(
                        f"record {owner} lies inside delegated subtree {child}"
                    )
            rrsets[key] = RRset.from_records(records)
        return Zone(self.name, apex, rrsets, dict(self._delegations),
                    soa_minimum=self._soa_minimum)

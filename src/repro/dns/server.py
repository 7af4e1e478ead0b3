"""The authoritative name-server answering algorithm.

A single :class:`AuthoritativeServer` may serve many zones (exactly like
production servers host thousands).  Given a question it picks the deepest
zone it is authoritative for, then produces one of:

* an **authoritative answer** — AA set, requested RRsets in the answer
  section, and, crucially for the paper, the zone's own IRRs in the
  authority + additional sections (this is what TTL-refresh feeds on);
* a **referral** — no answer, the child zone's NS in authority and glue in
  additional, AA clear;
* **NXDOMAIN** / **NODATA** for names/types that do not exist.

CNAMEs are chased while the target stays inside the same zone.
"""

from __future__ import annotations

from repro.dns.errors import LameDelegationError, ZoneConfigError
from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, RRset
from repro.dns.rrtypes import RRTYPE_BITS, RRClass, RRType
from repro.dns.zone import Zone

_MAX_CNAME_CHAIN = 8
_IN = RRClass.IN


class AuthoritativeServer:
    """A name server authoritative for one or more zones."""

    def __init__(self, name: Name, address: str) -> None:
        self.name = name
        self.address = address
        self._zones: dict[Name, Zone] = {}

    def serve_zone(self, zone: Zone) -> None:
        """Register this server as authoritative for ``zone``."""
        self._zones[zone.name] = zone

    def withdraw_zone(self, zone_name: Name) -> bool:
        """Stop answering for a zone (delegation moved elsewhere).

        Afterwards queries for that namespace raise
        :class:`LameDelegationError` — the server has gone lame for it,
        exactly like a decommissioned-but-running production server.
        Returns whether the zone was being served.
        """
        return self._zones.pop(zone_name, None) is not None

    def zones_served(self) -> tuple[Name, ...]:
        """Apex names of every zone this server answers for."""
        return tuple(self._zones)

    def is_authoritative_for(self, zone_name: Name) -> bool:
        """Whether this server hosts the zone with apex ``zone_name``."""
        return zone_name in self._zones

    # -- answering --------------------------------------------------------

    def respond(self, question: Question) -> Message:
        """Answer a question, per the standard authoritative algorithm.

        Raises:
            LameDelegationError: when no hosted zone covers the question —
                the server has been asked about namespace it does not own
                (the resolver treats this like a server failure).
        """
        # The most specific hosted zone whose bailiwick holds the name.
        zones = self._zones
        for ancestor in question.name.ancestors():
            zone = zones.get(ancestor)
            if zone is not None:
                break
        else:
            raise LameDelegationError(
                f"server {self.name} is not authoritative for {question.name}"
            )

        # Responses are a pure function of (question, zone content), so
        # they are memoized on the zone itself (shared across all servers
        # hosting it) and invalidated by the zone's operator actions.
        cacheable = question.rrclass is _IN
        key = (question.name.iid << RRTYPE_BITS) | question.rrtype
        if cacheable:
            cached = zone.cached_response(key)
            if cached is not None:
                return cached

        delegation = zone.delegation_covering(question.name)
        if delegation is not None:
            # Below a cut the parent only refers; if this server also
            # hosts the child, the child was already picked as the
            # deepest zone and we never get here.
            response = self._referral(question, delegation)
        else:
            response = self._authoritative_answer(question, zone)
        if cacheable:
            zone.store_response(key, response)
        return response

    def _referral(
        self, question: Question, delegation: InfrastructureRecordSet
    ) -> Message:
        """A downward referral carrying the child's parent-side IRRs."""
        return Message(
            question=question,
            rcode=Rcode.NOERROR,
            authoritative=False,
            answer=(),
            authority=(delegation.ns,),
            additional=delegation.glue + delegation.dnssec,
        )

    def _authoritative_answer(self, question: Question, zone: Zone) -> Message:
        answer_sets: list[RRset] = []
        qname = question.name
        for _ in range(_MAX_CNAME_CHAIN):
            direct = zone.lookup(qname, question.rrtype)
            if direct is not None:
                answer_sets.append(direct)
                break
            cname = zone.lookup(qname, RRType.CNAME)
            if cname is not None and question.rrtype != RRType.CNAME:
                answer_sets.append(cname)
                target = cname.records[0].data
                if not isinstance(target, Name):
                    raise ZoneConfigError(
                        f"CNAME rdata {target!r} at {qname} is not a name"
                    )
                if not target.is_subdomain_of(zone.name):
                    break  # resolver must chase the tail elsewhere
                qname = target
                continue
            break

        # Every authoritative response carries the zone's own IRRs;
        # whether the cache uses them to refresh TTLs is the
        # resolver-side policy the paper studies.
        authority, additional = zone.infrastructure_sections()
        if answer_sets:
            return Message(
                question=question,
                rcode=Rcode.NOERROR,
                authoritative=True,
                answer=tuple(answer_sets),
                authority=authority,
                additional=additional,
            )
        # Negative answers (RFC 2308): the authority section carries the
        # SOA so resolvers know the negative-caching TTL — not the NS set
        # (so negative answers are never mistaken for refresh vehicles).
        soa = zone.soa_rrset()
        negative_authority = (soa,) if soa is not None else authority
        if zone.name_exists(qname):
            return Message(
                question=question,
                rcode=Rcode.NOERROR,
                authoritative=True,
                answer=(),
                authority=negative_authority,
                additional=(),
            )
        return Message(
            question=question,
            rcode=Rcode.NXDOMAIN,
            authoritative=True,
            answer=(),
            authority=negative_authority,
            additional=(),
        )

    def __repr__(self) -> str:
        return f"AuthoritativeServer({self.name} @ {self.address}, zones={len(self._zones)})"

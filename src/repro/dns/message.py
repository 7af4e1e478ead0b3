"""DNS queries and responses.

The simulator exchanges :class:`Message` objects instead of wire-format
packets; a message carries the same three record sections a real response
does, because the paper's TTL-refresh mechanism lives entirely in how a
caching server treats the authority and additional sections of ordinary
responses.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.dns.name import Name
from repro.dns.ranking import Rank, section_rank
from repro.dns.records import RRset
from repro.dns.rrtypes import RRClass, RRType

_query_ids = itertools.count(1)

IngestRow = tuple[RRset, Rank, bool, bool, bool, bool]
"""One precomputed ingest step: ``(rrset, rank, is_ns, static_irr,
is_address, is_dnssec_key)``.  The booleans are the static parts of the
caching server's infrastructure classification — everything except the
known-server-name check, which depends on resolver state."""

IngestPlan = tuple[tuple[Name, ...], tuple[IngestRow, ...]]

_DNSSEC_IRR = (RRType.DNSKEY, RRType.DS, RRType.RRSIG)
_DNSSEC_KEY = (RRType.DNSKEY, RRType.DS)


class Rcode(enum.IntEnum):
    """Response codes (RFC 1035 §4.1.1)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True, slots=True)
class Question:
    """The question section: one (name, type, class) triple."""

    name: Name
    rrtype: RRType
    rrclass: RRClass = RRClass.IN

    def __str__(self) -> str:
        return f"{self.name} {self.rrclass.name} {self.rrtype.name}"

    def wire_size(self) -> int:
        """Approximate query size in octets (header + question)."""
        return 16 + self.name.wire_length()


@dataclass(frozen=True, slots=True)
class Message:
    """A DNS response message.

    ``authoritative`` mirrors the AA bit: set when the answering server is
    authoritative for the question's zone, clear on referrals.  The
    distinction drives RFC 2181 ranking in the cache.
    """

    question: Question
    rcode: Rcode = Rcode.NOERROR
    authoritative: bool = False
    answer: tuple[RRset, ...] = ()
    authority: tuple[RRset, ...] = ()
    additional: tuple[RRset, ...] = ()
    message_id: int = field(default_factory=lambda: next(_query_ids))
    forged: bool = field(default=False, compare=False)
    """Simulator ground truth: set on adversary-injected responses so
    the cache can account poison dwell time.  Resolver *behaviour* never
    branches on it — a real resolver cannot see this bit."""
    # Memo slots: responses are immutable, and with authoritative-side
    # response caching the same Message object is served (and ingested)
    # many times, so size/section walks are paid once per object.
    # Both are fill-only memos on a frozen class — `repro audit`
    # (REP010) proves no code mutates their dependency fields.
    # repro: memo(wire_size: field=_wire_size,
    #   depends=[question, answer, authority, additional],
    #   invalidator=none)
    _wire_size: int = field(default=-1, init=False, repr=False, compare=False)
    # repro: memo(plan: field=_plan,
    #   depends=[answer, authority, additional, authoritative],
    #   invalidator=none)
    _plan: IngestPlan | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_referral(self) -> bool:
        """True for a downward referral: non-authoritative, no answer, NS
        records in authority.

        The AA check matters: an *authoritative* NODATA response also
        carries the zone's NS set in its authority section, but it is a
        terminal answer, not a referral.
        """
        return (
            self.rcode == Rcode.NOERROR
            and not self.authoritative
            and not self.answer
            and any(rrset.rrtype == RRType.NS for rrset in self.authority)
        )

    def is_name_error(self) -> bool:
        """True when the queried name does not exist."""
        return self.rcode == Rcode.NXDOMAIN

    def is_nodata(self) -> bool:
        """True for NOERROR with no answer and no referral (empty answer)."""
        return (
            self.rcode == Rcode.NOERROR
            and not self.answer
            and not self.is_referral()
        )

    def referral_zone(self) -> Name | None:
        """The delegated zone a referral points at, or None."""
        for rrset in self.authority:
            if rrset.rrtype == RRType.NS:
                return rrset.name
        return None

    def all_rrsets(self) -> tuple[RRset, ...]:
        """Every RRset in the message, section order preserved."""
        return self.answer + self.authority + self.additional

    def record_count(self) -> int:
        """Total records across all three sections."""
        return sum(len(rrset) for rrset in self.all_rrsets())

    def wire_size(self) -> int:
        """Approximate response size in octets (header + question + RRs)."""
        size = self._wire_size
        if size < 0:
            size = 12 + self.question.name.wire_length() + 4
            for rrset in self.all_rrsets():
                size += sum(record.wire_size() for record in rrset)
            object.__setattr__(self, "_wire_size", size)  # repro: ignore[REP006]
        return size

    def ingest_plan(self) -> IngestPlan:
        """What a caching server files from this response, precomputed.

        Returns ``(ns_targets, ranked)``: the server names every NS RRset
        points at, and one :data:`IngestRow` per RRset carrying its RFC
        2181 rank plus the static infrastructure-classification flags.
        Everything depends only on the message's immutable sections and
        AA bit, so the walk is done once per Message object.
        """
        plan = self._plan
        if plan is None:
            ns_targets = tuple(
                record.data
                for rrset in self.all_rrsets()
                if rrset.rrtype == RRType.NS
                for record in rrset
                if isinstance(record.data, Name)
            )
            auth = self.authoritative
            ranked = tuple(
                (
                    rrset,
                    rank,
                    rrset.rrtype == RRType.NS,
                    rrset.rrtype == RRType.NS or rrset.rrtype in _DNSSEC_IRR,
                    rrset.rrtype.is_address(),
                    rrset.rrtype in _DNSSEC_KEY,
                )
                for section, rank in (
                    (self.answer, section_rank("answer", auth)),
                    (self.authority, section_rank("authority", auth)),
                    (self.additional, section_rank("additional", auth)),
                )
                for rrset in section
            )
            plan = (ns_targets, ranked)
            object.__setattr__(self, "_plan", plan)  # repro: ignore[REP006]
        return plan

    def __str__(self) -> str:
        parts = [
            f"id={self.message_id} {self.rcode.name}"
            f"{' aa' if self.authoritative else ''} q=({self.question})"
        ]
        for section_name, section in (
            ("an", self.answer),
            ("au", self.authority),
            ("ad", self.additional),
        ):
            for rrset in section:
                for record in rrset:
                    parts.append(f"  {section_name}: {record}")
        return "\n".join(parts)

"""RFC 1035 wire codec: :class:`~repro.dns.message.Message` ⇄ bytes.

The simulator's in-memory messages carry exactly the data a real packet
does (question, three record sections, AA bit, rcode), so the codec is
a straight transliteration of RFC 1035 §4: the 12-octet header, label
sequences with backward compression pointers, and per-type RDATA.  The
struct layout matches the raw-socket resolvers in SNIPPETS.md — the
golden-vector tests parse this codec's output with that exact layout.

Scope notes (the honest deltas from a full implementation):

* No EDNS0.  UDP responses that exceed the 512-octet classic limit are
  truncated to header + question with TC set; clients retry over TCP
  (:func:`frame_tcp` adds the 2-octet length prefix).
* Name-valued RDATA (NS/CNAME/PTR, the SOA names) is compressed and
  decompressed; A/AAAA use their binary forms; TXT uses character
  strings; every other type round-trips its textual rdata as raw UTF-8
  octets (self-consistent, and these types never leave the simulator).
* TTLs are whole seconds on the wire (uint32); the simulator's float
  TTLs are truncated on encode.

Query names preserve the client's octet case: :func:`decode_query`
keeps the raw labels alongside the canonical lowercased
:class:`~repro.dns.name.Name`, and :func:`encode_response` echoes them
back (RFC 1035 matching is case-insensitive, but resolvers compare the
echoed question bytes — 0x20 mixing must survive the round trip).
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass

from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRClass, RRType

HEADER = struct.Struct("!HHHHHH")
"""id, flags, qdcount, ancount, nscount, arcount (RFC 1035 §4.1.1)."""

#: Classic DNS/UDP payload ceiling (no EDNS0 in this codec).
UDP_PAYLOAD_MAX = 512

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080
_OPCODE_SHIFT = 11
_OPCODE_MASK = 0xF
_RCODE_MASK = 0xF

#: Compression pointers are 14 bits wide; offsets past this cannot be
#: targets.
_POINTER_LIMIT = 0x4000
_POINTER_TAG = 0xC0

_SOA_WIRE_TAIL = struct.Struct("!IIIII")
_RR_FIXED = struct.Struct("!HHIH")
_QUESTION_FIXED = struct.Struct("!HH")
_U16 = struct.Struct("!H")

_NAME_RDATA = frozenset({RRType.NS, RRType.CNAME, RRType.PTR})


class WireFormatError(ValueError):
    """A packet (or a message) that cannot be coded to/from the wire."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class _Writer:
    """Accumulates one message, tracking name offsets for compression."""

    __slots__ = ("buf", "_offsets")

    def __init__(self) -> None:
        self.buf = bytearray()
        # Canonical (lowercased) suffix -> offset of its first encoding.
        self._offsets: dict[tuple[str, ...], int] = {}

    def write_name(
        self, labels: tuple[str, ...], canonical: bool = False
    ) -> None:
        """Write a (possibly mixed-case) label sequence, compressing
        against every suffix already present in the message.

        ``canonical`` promises the labels are already lowercase (a
        :class:`~repro.dns.name.Name`'s are), so they key the suffix
        table as they stand.
        """
        lowered = (
            labels if canonical
            else tuple([label.lower() for label in labels])
        )
        buf, offsets = self.buf, self._offsets
        for index, label in enumerate(labels):
            suffix = lowered[index:]
            pointer = offsets.get(suffix)
            if pointer is not None:
                buf += _U16.pack(0xC000 | pointer)
                return
            here = len(buf)
            if here < _POINTER_LIMIT:
                offsets[suffix] = here
            encoded = label.encode("ascii")
            if not 0 < len(encoded) < 64:
                raise WireFormatError(f"label {label!r} not encodable")
            buf.append(len(encoded))
            buf += encoded
        buf.append(0)

    def write_question(
        self, question: Question, raw_labels: tuple[str, ...] | None = None
    ) -> None:
        if raw_labels:
            self.write_name(raw_labels)
        else:
            self.write_name(question.name.labels, canonical=True)
        self.buf += _QUESTION_FIXED.pack(question.rrtype, question.rrclass)

    def write_record(self, record: ResourceRecord) -> None:
        self.write_name(record.name.labels, canonical=True)
        ttl = int(record.ttl)
        if not 0 <= ttl < 2**32:
            raise WireFormatError(f"TTL {record.ttl} not encodable")
        buf = self.buf
        buf += _RR_FIXED.pack(record.rrtype, record.rrclass, ttl, 0)
        rdata_at = len(buf)
        self._write_rdata(record)
        _U16.pack_into(buf, rdata_at - 2, len(buf) - rdata_at)

    def _write_rdata(self, record: ResourceRecord) -> None:
        rrtype = record.rrtype
        data = record.data
        if rrtype in _NAME_RDATA:
            if not isinstance(data, Name):  # pragma: no cover - typed upstream
                raise WireFormatError(f"{rrtype.name} rdata must be a Name")
            self.write_name(data.labels, canonical=True)
        elif rrtype is RRType.A:
            try:
                self.buf += socket.inet_pton(socket.AF_INET, str(data))
            except OSError as error:
                raise WireFormatError(f"bad A rdata {data!r}") from error
        elif rrtype is RRType.AAAA:
            try:
                self.buf += ipaddress.IPv6Address(str(data)).packed
            except ipaddress.AddressValueError as error:
                raise WireFormatError(f"bad AAAA rdata {data!r}") from error
        elif rrtype is RRType.SOA:
            self._write_soa(str(data))
        elif rrtype is RRType.TXT:
            raw = str(data).encode("utf-8")
            for start in range(0, len(raw) or 1, 255):
                chunk = raw[start:start + 255]
                self.buf.append(len(chunk))
                self.buf += chunk
        else:
            # MX/SRV/DS/RRSIG/DNSKEY carry free-text rdata in the
            # simulator; ship the octets verbatim (self-consistent with
            # the decoder, which is the only consumer).
            self.buf += str(data).encode("utf-8")

    def _write_soa(self, text: str) -> None:
        # The simulator's SOA rdata is "<mname> <rname> <serial>
        # <minimum>" (see ZoneBuilder.set_soa); refresh/retry/expire are
        # not modelled and encode as zero.
        tokens = text.split()
        if len(tokens) != 4:
            raise WireFormatError(f"unencodable SOA rdata {text!r}")
        mname, rname, serial, minimum = tokens
        self.write_name(_labels_from_text(mname))
        self.write_name(_labels_from_text(rname))
        try:
            self.buf += _SOA_WIRE_TAIL.pack(int(serial), 0, 0, 0, int(minimum))
        except (ValueError, struct.error) as error:
            raise WireFormatError(f"unencodable SOA rdata {text!r}") from error


def _labels_from_text(text: str) -> tuple[str, ...]:
    stripped = text[:-1] if text.endswith(".") else text
    if not stripped:
        return ()
    return tuple(stripped.split("."))


def encode_query(
    question: Question,
    message_id: int,
    recursion_desired: bool = True,
    raw_labels: tuple[str, ...] | None = None,
) -> bytes:
    """One query packet for ``question`` (header + question section)."""
    writer = _Writer()
    flags = FLAG_RD if recursion_desired else 0
    writer.buf += HEADER.pack(message_id & 0xFFFF, flags, 1, 0, 0, 0)
    writer.write_question(question, raw_labels)
    return bytes(writer.buf)


def encode_response(
    message: Message,
    *,
    message_id: int | None = None,
    raw_labels: tuple[str, ...] | None = None,
    recursion_desired: bool = False,
    recursion_available: bool = True,
    max_size: int | None = None,
) -> bytes:
    """Encode ``message`` as a response packet.

    ``raw_labels`` echoes the client's original qname octets;
    ``recursion_desired`` echoes the client's RD bit.  When the encoded
    packet exceeds ``max_size`` (the UDP path passes 512), the response
    degrades to header + question with TC set — the classic signal to
    retry over TCP.
    """
    writer = _Writer()
    flags = FLAG_QR
    if message.authoritative:
        flags |= FLAG_AA
    if recursion_desired:
        flags |= FLAG_RD
    if recursion_available:
        flags |= FLAG_RA
    flags |= message.rcode & _RCODE_MASK
    mid = (message.message_id if message_id is None else message_id) & 0xFFFF
    # The counts are tallied while the records are written and filled
    # in afterwards.
    writer.buf += HEADER.pack(mid, flags, 1, 0, 0, 0)
    writer.write_question(message.question, raw_labels)
    counts = [0, 0, 0]
    for index, section in enumerate(
        (message.answer, message.authority, message.additional)
    ):
        for rrset in section:
            for record in rrset:
                writer.write_record(record)
                counts[index] += 1
    if max_size is not None and len(writer.buf) > max_size:
        truncated = _Writer()
        truncated.buf += HEADER.pack(mid, flags | FLAG_TC, 1, 0, 0, 0)
        truncated.write_question(message.question, raw_labels)
        return bytes(truncated.buf)
    HEADER.pack_into(writer.buf, 0, mid, flags, 1, *counts)
    return bytes(writer.buf)


def frame_tcp(payload: bytes) -> bytes:
    """Prefix ``payload`` with the RFC 1035 §4.2.2 two-octet length."""
    if len(payload) > 0xFFFF:
        raise WireFormatError(f"message of {len(payload)} octets exceeds TCP framing")
    return _U16.pack(len(payload)) + payload


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecodedQuery:
    """One parsed query: the canonical question plus wire details."""

    message_id: int
    question: Question
    raw_labels: tuple[str, ...]
    """The qname labels exactly as received (original octet case)."""
    recursion_desired: bool
    opcode: int


@dataclass(frozen=True, slots=True)
class DecodedMessage:
    """One parsed response: the Message plus response-only wire bits."""

    message: Message
    truncated: bool
    recursion_available: bool


def _read_name(data: bytes, offset: int) -> tuple[tuple[str, ...], int]:
    """Read one (possibly compressed) name.

    Returns ``(labels, next_offset)`` where labels keep their wire
    octet case and ``next_offset`` is the position after the name in
    the *original* (unjumped) byte stream.
    """
    labels: list[str] = []
    end: int | None = None
    jumps = 0
    total = 0
    while True:
        if offset >= len(data):
            raise WireFormatError("name runs past the end of the packet")
        length = data[offset]
        if length & _POINTER_TAG == _POINTER_TAG:
            if offset + 1 >= len(data):
                raise WireFormatError("dangling compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if end is None:
                end = offset + 2
            if pointer >= offset:
                raise WireFormatError("forward compression pointer")
            jumps += 1
            if jumps > 64:
                raise WireFormatError("compression pointer loop")
            offset = pointer
            continue
        if length & _POINTER_TAG:
            raise WireFormatError(f"reserved label type 0x{length:02x}")
        offset += 1
        if length == 0:
            return tuple(labels), end if end is not None else offset
        if offset + length > len(data):
            raise WireFormatError("label runs past the end of the packet")
        total += length + 1
        if total > 255:
            raise WireFormatError("name exceeds 255 octets")
        try:
            labels.append(data[offset:offset + length].decode("ascii"))
        except UnicodeDecodeError as error:
            raise WireFormatError("non-ASCII label") from error
        offset += length


def _canonical_name(labels: tuple[str, ...]) -> Name:
    if not labels:
        return Name.from_text(".")
    return Name.from_text(".".join(labels) + ".")


def _read_type_class(data: bytes, offset: int) -> tuple[int, int, int]:
    """The question's fixed tail: ``(rrtype, rrclass, next_offset)``."""
    end = offset + _QUESTION_FIXED.size
    if end > len(data):
        raise WireFormatError("packet truncated mid-field")
    rrtype_value, rrclass_value = _QUESTION_FIXED.unpack_from(data, offset)
    return rrtype_value, rrclass_value, end


def decode_query(data: bytes) -> DecodedQuery:
    """Parse a query packet (header + one question).

    Raises :class:`WireFormatError` for responses, multi-question
    packets, names with bad labels, or truncated octets — the server
    maps those to FORMERR or a drop.
    """
    if len(data) < HEADER.size:
        raise WireFormatError("packet shorter than the DNS header")
    message_id, flags, qdcount, _an, _ns, _ar = HEADER.unpack_from(data)
    if flags & FLAG_QR:
        raise WireFormatError("QR bit set on a query")
    if qdcount != 1:
        raise WireFormatError(f"expected exactly one question, got {qdcount}")
    labels, offset = _read_name(data, HEADER.size)
    rrtype_value, rrclass_value, offset = _read_type_class(data, offset)
    try:
        question = Question(
            _canonical_name(labels),
            RRType(rrtype_value),
            RRClass(rrclass_value),
        )
    except ValueError as error:
        raise WireFormatError(str(error)) from error
    return DecodedQuery(
        message_id=message_id,
        question=question,
        raw_labels=labels,
        recursion_desired=bool(flags & FLAG_RD),
        opcode=(flags >> _OPCODE_SHIFT) & _OPCODE_MASK,
    )


def _decode_rdata(
    data: bytes, start: int, rdlength: int, rrtype: RRType
) -> Name | str:
    end = start + rdlength
    if end > len(data):
        raise WireFormatError("rdata runs past the end of the packet")
    if rrtype in _NAME_RDATA:
        labels, _ = _read_name(data, start)
        return _canonical_name(labels)
    raw = data[start:end]
    if rrtype is RRType.A:
        if rdlength != 4:
            raise WireFormatError(f"A rdata of {rdlength} octets")
        return ".".join(str(octet) for octet in raw)
    if rrtype is RRType.AAAA:
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata of {rdlength} octets")
        return str(ipaddress.IPv6Address(raw))
    if rrtype is RRType.SOA:
        mname, offset = _read_name(data, start)
        rname, offset = _read_name(data, offset)
        if offset + _SOA_WIRE_TAIL.size > end:
            raise WireFormatError("SOA rdata truncated")
        serial, _refresh, _retry, _expire, minimum = _SOA_WIRE_TAIL.unpack_from(
            data, offset
        )
        return (
            f"{_canonical_name(mname)} {_canonical_name(rname)} "
            f"{serial} {minimum}"
        )
    if rrtype is RRType.TXT:
        chunks: list[bytes] = []
        offset = start
        while offset < end:
            size = raw[offset - start]
            offset += 1
            chunks.append(data[offset:offset + size])
            offset += size
        if offset != end:
            raise WireFormatError("TXT rdata mis-framed")
        return b"".join(chunks).decode("utf-8", errors="strict")
    return raw.decode("utf-8", errors="strict")


def _read_records(
    data: bytes, offset: int, count: int
) -> tuple[tuple[RRset, ...], int]:
    """Read ``count`` records, grouping wire-adjacent records that share
    an (owner, type) into one RRset (order within the set preserved)."""
    rrsets: list[RRset] = []
    pending: list[ResourceRecord] = []
    for _ in range(count):
        labels, offset = _read_name(data, offset)
        if offset + _RR_FIXED.size > len(data):
            raise WireFormatError("record header truncated")
        rrtype_value, rrclass_value, ttl, rdlength = _RR_FIXED.unpack_from(
            data, offset
        )
        offset += _RR_FIXED.size
        try:
            rrtype = RRType(rrtype_value)
            rrclass = RRClass(rrclass_value)
        except ValueError as error:
            raise WireFormatError(str(error)) from error
        rdata = _decode_rdata(data, offset, rdlength, rrtype)
        offset += rdlength
        record = ResourceRecord(
            name=_canonical_name(labels),
            rrtype=rrtype,
            ttl=float(ttl),
            data=rdata,
            rrclass=rrclass,
        )
        if pending and (
            pending[0].name != record.name
            or pending[0].rrtype != record.rrtype
        ):
            rrsets.append(_bundle(pending))
            pending = []
        pending.append(record)
    if pending:
        rrsets.append(_bundle(pending))
    return tuple(rrsets), offset


def _bundle(records: list[ResourceRecord]) -> RRset:
    first = records[0]
    return RRset(
        name=first.name,
        rrtype=first.rrtype,
        ttl=first.ttl,
        records=tuple(records),
    )


def decode_message(data: bytes) -> DecodedMessage:
    """Parse a response packet into a :class:`Message`."""
    if len(data) < HEADER.size:
        raise WireFormatError("packet shorter than the DNS header")
    message_id, flags, qdcount, ancount, nscount, arcount = HEADER.unpack_from(
        data
    )
    if not flags & FLAG_QR:
        raise WireFormatError("QR bit clear on a response")
    if qdcount != 1:
        raise WireFormatError(f"expected exactly one question, got {qdcount}")
    labels, offset = _read_name(data, HEADER.size)
    rrtype_value, rrclass_value, offset = _read_type_class(data, offset)
    try:
        question = Question(
            _canonical_name(labels),
            RRType(rrtype_value),
            RRClass(rrclass_value),
        )
        rcode = Rcode(flags & _RCODE_MASK)
    except ValueError as error:
        raise WireFormatError(str(error)) from error
    answer, offset = _read_records(data, offset, ancount)
    authority, offset = _read_records(data, offset, nscount)
    additional, offset = _read_records(data, offset, arcount)
    message = Message(
        question=question,
        rcode=rcode,
        authoritative=bool(flags & FLAG_AA),
        answer=answer,
        authority=authority,
        additional=additional,
        message_id=message_id,
    )
    return DecodedMessage(
        message=message,
        truncated=bool(flags & FLAG_TC),
        recursion_available=bool(flags & FLAG_RA),
    )

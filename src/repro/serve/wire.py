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
* Decoded labels must use the :class:`~repro.dns.name.Name` alphabet
  (``[A-Za-z0-9_-]``).  Any other octet is a :class:`WireFormatError`,
  which is what both decoders raise for every malformed packet.

* A query's question is echoed: :func:`decode_query` hands back the
  client's question octets beside the canonical lowercased
  :class:`~repro.dns.name.Name`, and :func:`encode_response` copies them
  into the reply verbatim (RFC 1035 matching is case-insensitive, but
  resolvers compare the echoed question bytes, so 0x20 mixing survives).
* A query's name is never compressed: a compression pointer in it could
  only point into the 12-octet header or back into the name itself, so
  :func:`decode_query` refuses it with a :class:`WireFormatError`, which
  the server answers with FORMERR.  Responses may compress anywhere
  backwards.

Two encoders share one writer.  :func:`encode_response` is the served
path: header, the echoed question, then the resolution's answer RRset,
with no :class:`~repro.dns.message.Message` built; an answer owned by
the question's name whose rdata holds no name is written without the
writer (each owner a pointer to the question).
:func:`encode_message` writes a whole ``Message`` (three sections, AA
bit) and is the counterpart of :func:`decode_message`.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.dns.message import Message, Question, Rcode
from repro.dns.name import (
    _INTERN,
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    Name,
    root_name,
)
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
_RDATA_WITH_NAMES = _NAME_RDATA | {RRType.SOA}
"""The types whose rdata holds a name (SOA's two as text)."""
_A = RRType.A
_inet_pton = socket.inet_pton
_AF_INET = socket.AF_INET


class WireFormatError(ValueError):
    """A packet (or a message) that cannot be coded to/from the wire."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class _Writer:
    """Accumulates one message, tracking name offsets for compression.

    The offset table is keyed on interned suffix :class:`Name` objects
    (the entries of :meth:`Name.ancestors`), so it hashes by identity
    and a name is matched against every suffix already written without
    building a key.  A label sequence that is not a ``Name`` (SOA text,
    a foreign-case query echo) keys each suffix as the interned ``Name``
    when the intern table holds one, else as its lowercased label tuple,
    which only another text name can match.  Either way a suffix
    compresses exactly when its lowercased labels were written before,
    unless a record's owner interns that suffix as a new ancestor after
    a text name wrote it.
    """

    __slots__ = ("buf", "_offsets")

    def __init__(
        self,
        buf: bytearray,
        offsets: dict[Name | tuple[str, ...], int] | None = None,
    ) -> None:
        self.buf = buf
        self._offsets = {} if offsets is None else offsets

    def write_name(self, name: Name) -> None:
        self.write_labels(name.labels, name.ancestors())

    def write_text_labels(self, labels: tuple[str, ...]) -> None:
        lowered = tuple([label.lower() for label in labels])
        tails = [lowered[index:] for index in range(len(lowered))]
        self.write_labels(labels, [_INTERN.get(tail, tail) for tail in tails])

    def write_labels(
        self,
        labels: tuple[str, ...],
        suffixes: Sequence[Name | tuple[str, ...]],
    ) -> None:
        """Write ``labels``, ending in a pointer at the first suffix
        already present; ``suffixes[i]`` keys ``labels[i:]``."""
        buf, offsets = self.buf, self._offsets
        for label, suffix in zip(labels, suffixes):
            pointer = offsets.get(suffix)
            if pointer is not None:
                buf += _U16.pack(0xC000 | pointer)
                return
            here = len(buf)
            if here < _POINTER_LIMIT:
                offsets[suffix] = here
            encoded = label.encode("ascii")
            size = len(encoded)
            if not 0 < size <= MAX_LABEL_LENGTH:
                raise WireFormatError(f"label {label!r} not encodable")
            buf.append(size)
            buf += encoded
        buf.append(0)

    def write_question(
        self, question: Question, raw_labels: tuple[str, ...] | None = None
    ) -> None:
        """The question, echoing ``raw_labels`` (the client's octet case)
        when given."""
        name = question.name
        if not raw_labels or raw_labels == name.labels:
            self.write_name(name)
        elif tuple([label.lower() for label in raw_labels]) == name.labels:
            self.write_labels(raw_labels, name.ancestors())
        else:
            self.write_text_labels(raw_labels)
        self.buf += _QUESTION_FIXED.pack(question.rrtype, question.rrclass)

    def write_record(self, record: ResourceRecord) -> None:
        # encode_response writes an answer owned by the question's name
        # with these same checks inline; change both together.
        name = record.name
        self.write_labels(name.labels, name.ancestors())
        ttl = int(record.ttl)
        if not 0 <= ttl < 2**32:
            raise WireFormatError(f"TTL {record.ttl} not encodable")
        buf = self.buf
        rrtype = record.rrtype
        if rrtype is _A:
            # The one fixed-size rdata: its length goes in with the header.
            try:
                address = _inet_pton(_AF_INET, str(record.data))
            except OSError as error:
                raise WireFormatError(f"bad A rdata {record.data!r}") from error
            buf += _RR_FIXED.pack(rrtype, record.rrclass, ttl, 4)
            buf += address
            return
        buf += _RR_FIXED.pack(rrtype, record.rrclass, ttl, 0)
        rdata_at = len(buf)
        self._write_rdata(record)
        _U16.pack_into(buf, rdata_at - 2, len(buf) - rdata_at)

    def _write_rdata(self, record: ResourceRecord) -> None:
        """Every rdata but A's, which :meth:`write_record` writes."""
        rrtype = record.rrtype
        data = record.data
        if rrtype in _NAME_RDATA:
            if not isinstance(data, Name):  # pragma: no cover - typed upstream
                raise WireFormatError(f"{rrtype.name} rdata must be a Name")
            self.write_name(data)
        elif rrtype is RRType.SOA:
            self._write_soa(str(data))
        else:
            self.buf += _nameless_rdata(rrtype, data)

    def _write_soa(self, text: str) -> None:
        # The simulator's SOA rdata is "<mname> <rname> <serial>
        # <minimum>" (see ZoneBuilder.set_soa); refresh/retry/expire are
        # not modelled and encode as zero.
        tokens = text.split()
        if len(tokens) != 4:
            raise WireFormatError(f"unencodable SOA rdata {text!r}")
        mname, rname, serial, minimum = tokens
        self.write_text_labels(_labels_from_text(mname))
        self.write_text_labels(_labels_from_text(rname))
        try:
            self.buf += _SOA_WIRE_TAIL.pack(int(serial), 0, 0, 0, int(minimum))
        except (ValueError, struct.error) as error:
            raise WireFormatError(f"unencodable SOA rdata {text!r}") from error


def _nameless_rdata(rrtype: RRType, data: Name | str) -> bytes:
    """The rdata octets of a type that holds no name: neither A (written
    inline), NS/CNAME/PTR nor SOA."""
    if rrtype is RRType.AAAA:
        try:
            return ipaddress.IPv6Address(str(data)).packed
        except ipaddress.AddressValueError as error:
            raise WireFormatError(f"bad AAAA rdata {data!r}") from error
    raw = str(data).encode("utf-8")
    if rrtype is RRType.TXT:
        chunks = bytearray()
        for start in range(0, len(raw) or 1, 255):
            chunk = raw[start:start + 255]
            chunks.append(len(chunk))
            chunks += chunk
        return bytes(chunks)
    # MX/SRV/DS/RRSIG/DNSKEY carry free-text rdata in the simulator; ship
    # the octets verbatim (self-consistent with the decoder, which is the
    # only consumer).
    return raw


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
    flags = FLAG_RD if recursion_desired else 0
    writer = _Writer(bytearray(HEADER.pack(message_id & 0xFFFF, flags, 1, 0, 0, 0)))
    writer.write_question(question, raw_labels)
    return bytes(writer.buf)


_RESPONSE_FLAGS = (FLAG_QR | FLAG_RA, FLAG_QR | FLAG_RA | FLAG_RD)
"""A served reply's flags without its rcode, indexed by the query's RD bit."""

_QNAME_POINTER = _U16.pack(0xC000 | HEADER.size)
"""A compression pointer to the question's name, right after the header."""


def encode_response(
    query: DecodedQuery,
    rcode: Rcode,
    answer: RRset | None,
    *,
    max_size: int | None = None,
) -> bytes:
    """The reply to ``query``: ``rcode`` and ``answer`` behind its question.

    The header echoes the query's id and RD bit and sets RA; AA is clear,
    as from any caching server.  The question is the client's octets,
    copied.  An answer owned by the question's name whose rdata holds no
    name (every warm A answer) needs no compression table: each owner is
    the pointer to offset 12, the octets the table would give it.  Any
    other answer (a CNAME-reached owner, NS/CNAME/PTR/SOA rdata) goes
    through a writer whose table holds each suffix of the question's
    name at its offset, so it compresses exactly as
    :func:`encode_message` would.  Either way an unencodable TTL or rdata
    is a :class:`WireFormatError`.  The owned path repeats
    :meth:`_Writer.write_record`'s TTL range and A rdata rules inline
    because a shared helper would add a frame per record to the served
    hit, whose budget is twelve Python calls
    (``tests/serve/test_served_call_budget.py``);
    ``tests/serve/test_wire.py`` sends the same bad records down both
    paths.  When the packet exceeds ``max_size``
    (the UDP path passes 512), it degrades to header + question with TC
    set: the classic signal to retry over TCP.
    """
    message_id = query.message_id
    flags = _RESPONSE_FLAGS[query.recursion_desired] | rcode
    buf = bytearray(HEADER.size)
    buf += query.question_octets
    question_end = len(buf)
    count = 0
    if answer is not None:
        name = query.question.name
        rrtype = answer.rrtype
        records = answer.records
        if answer.name is name and rrtype not in _RDATA_WITH_NAMES:
            owner = _QNAME_POINTER if name.labels else b"\0"
            for record in records:
                ttl = int(record.ttl)
                if not 0 <= ttl < 2**32:
                    raise WireFormatError(f"TTL {record.ttl} not encodable")
                if rrtype is _A:
                    try:
                        rdata = _inet_pton(_AF_INET, str(record.data))
                    except OSError as error:
                        raise WireFormatError(
                            f"bad A rdata {record.data!r}"
                        ) from error
                else:
                    rdata = _nameless_rdata(rrtype, record.data)
                buf += owner
                buf += _RR_FIXED.pack(rrtype, record.rrclass, ttl, len(rdata))
                buf += rdata
        else:
            offsets: dict[Name | tuple[str, ...], int] = {}
            here = HEADER.size
            for label, suffix in zip(name.labels, name.ancestors()):
                offsets[suffix] = here
                here += len(label) + 1
            writer = _Writer(buf, offsets)
            for record in records:
                writer.write_record(record)
        count = len(records)
    if max_size is not None and len(buf) > max_size:
        del buf[question_end:]
        count = 0
        flags |= FLAG_TC
    HEADER.pack_into(buf, 0, message_id, flags, 1, count, 0, 0)
    return bytes(buf)


def encode_message(
    message: Message,
    *,
    message_id: int | None = None,
    raw_labels: tuple[str, ...] | None = None,
    recursion_desired: bool = False,
    recursion_available: bool = True,
    max_size: int | None = None,
) -> bytes:
    """Encode a whole ``message`` as a response packet.

    ``raw_labels`` writes the qname in that octet case;
    ``recursion_desired`` sets the RD bit.  When the encoded
    packet exceeds ``max_size`` (the UDP path passes 512), the response
    degrades to header + question with TC set — the classic signal to
    retry over TCP.
    """
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
    writer = _Writer(bytearray(HEADER.pack(mid, flags, 1, 0, 0, 0)))
    writer.write_question(message.question, raw_labels)
    question_end = len(writer.buf)
    counts = []
    for section in (message.answer, message.authority, message.additional):
        count = 0
        for rrset in section:
            records = rrset.records
            for record in records:
                writer.write_record(record)
            count += len(records)
        counts.append(count)
    buf = writer.buf
    if max_size is not None and len(buf) > max_size:
        del buf[question_end:]
        HEADER.pack_into(buf, 0, mid, flags | FLAG_TC, 1, 0, 0, 0)
    else:
        HEADER.pack_into(buf, 0, mid, flags, 1, *counts)
    return bytes(buf)


def frame_tcp(payload: bytes) -> bytes:
    """Prefix ``payload`` with the RFC 1035 §4.2.2 two-octet length."""
    if len(payload) > 0xFFFF:
        raise WireFormatError(f"message of {len(payload)} octets exceeds TCP framing")
    return _U16.pack(len(payload)) + payload


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class DecodedQuery(NamedTuple):
    """One parsed query: the canonical question plus wire details."""

    message_id: int
    question: Question
    question_octets: bytes
    """The question section exactly as received: qname in the client's
    octet case, type and class."""
    recursion_desired: bool
    opcode: int


@dataclass(frozen=True, slots=True)
class DecodedMessage:
    """One parsed response: the Message plus response-only wire bits."""

    message: Message
    truncated: bool
    recursion_available: bool


#: The octets a wire label may carry: the :class:`Name` alphabet in
#: either case.  Anything else (``.``, spaces, non-ASCII) is a
#: :class:`WireFormatError`, never a different name.
_LABEL_OCTETS = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)

_ROOT = root_name()

_RRTYPES = {int(member): member for member in RRType}
_RRCLASSES = {int(member): member for member in RRClass}
_RCODES = {int(member): member for member in Rcode}


def _read_name(data: bytes, offset: int) -> tuple[tuple[str, ...], int]:
    """Read one (possibly compressed) name.

    Returns ``(labels, next_offset)`` where labels keep their wire
    octet case and ``next_offset`` is the position after the name in
    the *original* (unjumped) byte stream.  Every label's octets are
    checked against the name alphabet and the whole name against the
    255-octet limit here, so :func:`_name_for` never re-validates.
    """
    labels: list[str] = []
    end = -1
    jumps = 0
    total = 1  # the root's terminating zero octet
    size = len(data)
    while True:
        if offset >= size:
            raise WireFormatError("name runs past the end of the packet")
        length = data[offset]
        if length > MAX_LABEL_LENGTH:
            if length & _POINTER_TAG != _POINTER_TAG:
                raise WireFormatError(f"reserved label type 0x{length:02x}")
            if offset + 1 >= size:
                raise WireFormatError("dangling compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if end < 0:
                end = offset + 2
            if pointer >= offset:
                raise WireFormatError("forward compression pointer")
            jumps += 1
            if jumps > 64:
                raise WireFormatError("compression pointer loop")
            offset = pointer
            continue
        offset += 1
        if not length:
            return tuple(labels), end if end >= 0 else offset
        stop = offset + length
        if stop > size:
            raise WireFormatError("label runs past the end of the packet")
        total += length + 1
        if total > MAX_NAME_LENGTH:
            raise WireFormatError("name exceeds 255 octets")
        octets = data[offset:stop]
        if octets.translate(None, _LABEL_OCTETS):
            raise WireFormatError(f"bad octet in label {octets!r}")
        labels.append(octets.decode("ascii"))
        offset = stop


def _name_for(labels: tuple[str, ...]) -> Name:
    """The interned :class:`Name` for labels :func:`_read_name` checked."""
    lowered = tuple([label.lower() for label in labels])
    return _INTERN.get(lowered) or Name(lowered)


def _type_and_class(rrtype_value: int, rrclass_value: int) -> tuple[RRType, RRClass]:
    """The members for two wire codes; an unknown code is a WireFormatError."""
    rrtype = _RRTYPES.get(rrtype_value)
    if rrtype is None:
        raise WireFormatError(f"{rrtype_value} is not a valid RRType")
    rrclass = _RRCLASSES.get(rrclass_value)
    if rrclass is None:
        raise WireFormatError(f"{rrclass_value} is not a valid RRClass")
    return rrtype, rrclass


def _read_question(data: bytes) -> tuple[Question, int]:
    """The question after the header: ``(question, next_offset)``."""
    labels, offset = _read_name(data, HEADER.size)
    end = offset + _QUESTION_FIXED.size
    if end > len(data):
        raise WireFormatError("packet truncated mid-field")
    rrtype, rrclass = _type_and_class(*_QUESTION_FIXED.unpack_from(data, offset))
    return Question(_name_for(labels), rrtype, rrclass), end


_QUERY_HEAD = struct.Struct("!HHH")
"""id, flags, qdcount: the header fields a query is checked on."""

#: The furthest a query name's last label may end: 255 octets after the
#: header, counting the root's zero octet that follows it.
_QNAME_STOP = HEADER.size + MAX_NAME_LENGTH - 1

_tuple_new = tuple.__new__


def decode_query(data: bytes) -> DecodedQuery:
    """Parse a query packet (header + one question) in one pass.

    Raises :class:`WireFormatError` for responses, multi-question
    packets, compressed or malformed names, labels outside the name
    alphabet, unknown types or classes, or truncated octets; the server
    maps those to FORMERR or a drop.  Octets after the question are
    ignored.
    """
    size = len(data)
    if size < HEADER.size:
        raise WireFormatError("packet shorter than the DNS header")
    message_id, flags, qdcount = _QUERY_HEAD.unpack_from(data)
    if flags & FLAG_QR:
        raise WireFormatError("QR bit set on a query")
    if qdcount != 1:
        raise WireFormatError(f"expected exactly one question, got {qdcount}")
    labels: list[bytes] = []
    offset = HEADER.size
    while True:
        if offset >= size:
            raise WireFormatError("name runs past the end of the packet")
        length = data[offset]
        offset += 1
        if not length:
            break
        if length > MAX_LABEL_LENGTH:
            if length & _POINTER_TAG == _POINTER_TAG:
                raise WireFormatError("compression pointer in a query name")
            raise WireFormatError(f"reserved label type 0x{length:02x}")
        stop = offset + length
        if stop > size:
            raise WireFormatError("label runs past the end of the packet")
        if stop > _QNAME_STOP:
            raise WireFormatError("name exceeds 255 octets")
        labels.append(data[offset:stop])
        offset = stop
    end = offset + _QUESTION_FIXED.size
    if end > size:
        raise WireFormatError("packet truncated mid-field")
    rrtype_value, rrclass_value = _QUESTION_FIXED.unpack_from(data, offset)
    rrtype = _RRTYPES.get(rrtype_value)
    rrclass = _RRCLASSES.get(rrclass_value)
    if rrtype is None or rrclass is None:
        # Raises, naming the unknown code.
        rrtype, rrclass = _type_and_class(rrtype_value, rrclass_value)
    if labels:
        dotted = b".".join(labels)
        # A label holding a dot would leave more dots than the joins put in.
        if dotted.translate(None, _LABEL_OCTETS) != b"." * (len(labels) - 1):
            for octets in labels:
                if octets.translate(None, _LABEL_OCTETS):
                    raise WireFormatError(f"bad octet in label {octets!r}")
        lowered = tuple(dotted.lower().decode("ascii").split("."))
        name = _INTERN.get(lowered) or Name(lowered)
    else:
        name = _ROOT
    return _tuple_new(DecodedQuery, (
        message_id,
        _tuple_new(Question, (name, rrtype, rrclass)),
        data[HEADER.size:end],
        bool(flags & FLAG_RD),
        (flags >> _OPCODE_SHIFT) & _OPCODE_MASK,
    ))


def _decode_rdata(
    data: bytes, start: int, rdlength: int, rrtype: RRType
) -> Name | str:
    end = start + rdlength
    if end > len(data):
        raise WireFormatError("rdata runs past the end of the packet")
    if rrtype in _NAME_RDATA:
        labels, _ = _read_name(data, start)
        return _name_for(labels)
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
        return f"{_name_for(mname)} {_name_for(rname)} {serial} {minimum}"
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
        raw = b"".join(chunks)
    try:
        return raw.decode("utf-8", errors="strict")
    except UnicodeDecodeError as error:
        raise WireFormatError(f"{rrtype.name} rdata is not UTF-8") from error


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
        rrtype, rrclass = _type_and_class(rrtype_value, rrclass_value)
        rdata = _decode_rdata(data, offset, rdlength, rrtype)
        offset += rdlength
        record = ResourceRecord(
            name=_name_for(labels),
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
    question, offset = _read_question(data)
    rcode = _RCODES.get(flags & _RCODE_MASK)
    if rcode is None:
        raise WireFormatError(f"{flags & _RCODE_MASK} is not a valid Rcode")
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

"""Wire codec: golden vectors against the SNIPPETS layout + round trips.

Three kinds of evidence that the codec speaks RFC 1035 and not a private
dialect, and survives packets that do not:

* Golden vectors built with the exact ``struct`` layout the raw-socket
  resolvers in SNIPPETS.md use (``!HHHHHH`` header, length-prefixed
  labels, ``!HH`` question tail, ``!HHIH`` RR fixed part, ``0xC0``
  compression pointers) — encoded queries must match those bytes
  octet-for-octet, and encoded responses must parse under a
  transliteration of that snippet's reader.
* Hypothesis round trips ``Message -> encode_message -> decode_message``
  over every rdata shape the simulator emits, including compressed
  names, mixed-case query echo and the TC/TCP fallback path.
* Hostile bytes: hand-built bad labels and rdata, and a hypothesis fuzz
  over arbitrary and mutated packets, each of which must decode or
  raise :class:`WireFormatError` and nothing else.
"""

from __future__ import annotations

import ipaddress
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRClass, RRType
from repro.serve.wire import (
    FLAG_AA,
    FLAG_QR,
    FLAG_RA,
    FLAG_RD,
    FLAG_TC,
    HEADER,
    UDP_PAYLOAD_MAX,
    DecodedMessage,
    DecodedQuery,
    WireFormatError,
    decode_message,
    decode_query,
    encode_message,
    encode_query,
    encode_response,
    frame_tcp,
)


def _snippet_qname(domain: str) -> bytes:
    """The SNIPPETS.md query-name encoding, verbatim technique."""
    return b"".join(
        bytes([len(part)]) + part.encode() for part in domain.split(".")
    ) + b"\x00"


def _snippet_read_name(data: bytes, offset: int) -> tuple[str, int]:
    """Name reader transliterated from the SNIPPETS raw-socket resolver:
    length-prefixed labels terminated by 0x00, 0xC0 two-octet pointers."""
    labels = []
    jumped_end = None
    while True:
        length = data[offset]
        if length & 0xC0 == 0xC0:
            pointer = struct.unpack("!H", data[offset:offset + 2])[0] & 0x3FFF
            if jumped_end is None:
                jumped_end = offset + 2
            offset = pointer
            continue
        offset += 1
        if length == 0:
            return ".".join(labels), (
                jumped_end if jumped_end is not None else offset
            )
        labels.append(data[offset:offset + length].decode())
        offset += length


def _snippet_parse_answers(data: bytes) -> list[tuple[str, int, int, str]]:
    """Answer-section parser in the SNIPPETS struct layout.

    Returns ``(owner, ttl, rtype, rdata-as-text)`` rows; A records are
    rendered dotted-quad exactly as the snippet does.
    """
    _tid, _flags, qdcount, ancount, _ns, _ar = struct.unpack(
        "!HHHHHH", data[:12]
    )
    offset = 12
    for _ in range(qdcount):
        _, offset = _snippet_read_name(data, offset)
        offset += 4  # qtype + qclass
    rows = []
    for _ in range(ancount):
        owner, offset = _snippet_read_name(data, offset)
        rtype, _rclass, ttl, rdlength = struct.unpack(
            "!HHIH", data[offset:offset + 10]
        )
        offset += 10
        if rtype == 1 and rdlength == 4:
            rdata = ".".join(str(b) for b in data[offset:offset + 4])
        else:
            rdata = data[offset:offset + rdlength].hex()
        rows.append((owner, ttl, rtype, rdata))
        offset += rdlength
    return rows


class TestGoldenVectors:
    def test_query_matches_snippet_layout(self):
        """encode_query output is byte-identical to the SNIPPETS builder:
        ``pack("!HHHHHH", tid, 0x0100, 1, 0, 0, 0)`` + qname + ``!HH``."""
        question = Question(Name.from_text("www.example.com"), RRType.A)
        expected = (
            struct.pack("!HHHHHH", 0x1234, 0x0100, 1, 0, 0, 0)
            + _snippet_qname("www.example.com")
            + struct.pack("!HH", 1, 1)
        )
        assert encode_query(question, 0x1234) == expected

    def test_query_without_rd_clears_the_flag(self):
        question = Question(Name.from_text("example.com"), RRType.NS)
        packet = encode_query(question, 7, recursion_desired=False)
        assert packet[:12] == struct.pack("!HHHHHH", 7, 0, 1, 0, 0, 0)
        assert packet[12:] == _snippet_qname("example.com") + struct.pack(
            "!HH", 2, 1
        )

    def test_response_parses_under_the_snippet_reader(self):
        """A compressed two-record answer decodes correctly with the
        SNIPPETS parser (owner via 0xC0 pointer, A rdata dotted-quad)."""
        name = Name.from_text("www.ucla.edu")
        rrset = RRset.from_records([
            ResourceRecord(name, RRType.A, 300, "131.179.0.1"),
            ResourceRecord(name, RRType.A, 300, "131.179.0.2"),
        ])
        message = Message(
            question=Question(name, RRType.A),
            authoritative=True,
            answer=(rrset,),
            message_id=0xBEEF,
        )
        packet = encode_message(message)
        rows = _snippet_parse_answers(packet)
        assert rows == [
            ("www.ucla.edu", 300, 1, "131.179.0.1"),
            ("www.ucla.edu", 300, 1, "131.179.0.2"),
        ]
        # The owner name repeats, so the second record must use a
        # compression pointer back into the question.
        assert any(
            packet[i] & 0xC0 == 0xC0 for i in range(12, len(packet))
        )
        assert len(packet) < 12 + 2 * (len("www.ucla.edu") + 2 + 4 + 10 + 4)

    def test_hand_built_response_decodes(self):
        """A packet assembled with raw struct calls (the snippet's
        authoring side) decodes into the expected Message."""
        qname = _snippet_qname("ns1.tld7.example")
        packet = (
            struct.pack(
                "!HHHHHH", 42, FLAG_QR | FLAG_AA | FLAG_RA, 1, 1, 0, 0
            )
            + qname
            + struct.pack("!HH", 1, 1)
            + struct.pack("!H", 0xC000 | 12)  # owner = pointer to qname
            + struct.pack("!HHIH", 1, 1, 3600, 4)
            + bytes([10, 0, 0, 7])
        )
        decoded = decode_message(packet)
        message = decoded.message
        assert message.message_id == 42
        assert message.authoritative
        assert message.rcode is Rcode.NOERROR
        assert decoded.recursion_available
        assert not decoded.truncated
        assert message.question == Question(
            Name.from_text("ns1.tld7.example"), RRType.A
        )
        (answer,) = message.answer
        assert answer.name == Name.from_text("ns1.tld7.example")
        assert [record.data for record in answer.records] == ["10.0.0.7"]
        assert answer.records[0].ttl == 3600.0


class TestPinnedBytes:
    """Packets captured from the codec before its one-pass rewrite: the
    encoder may get faster, the octets may not move."""

    WWW = Name.from_text("www.z47.biz.")

    def test_hit_path_answer_echoes_case_and_compresses_the_owner(self):
        message = Message(
            question=Question(self.WWW, RRType.A),
            answer=(RRset.from_records(
                [ResourceRecord(self.WWW, RRType.A, 3600, "10.0.1.7")]
            ),),
            message_id=1,
        )
        packet = encode_message(
            message,
            message_id=0xBEEF,
            raw_labels=("wWw", "Z47", "bIz"),
            recursion_desired=True,
            max_size=UDP_PAYLOAD_MAX,
        )
        assert packet.hex() == (
            "beef81800001000100000000"
            "03775777035a34370362497a0000010001"  # wWw.Z47.bIz. A IN
            "c00c00010001" "00000e10" "0004" "0a000107"
        )

    def test_referral_compresses_rdata_names_and_glue_owners(self):
        zone = Name.from_text("z47.biz.")
        ns1 = Name.from_text("ns1.z47.biz.")
        ns2 = Name.from_text("ns2.z47.biz.")
        message = Message(
            question=Question(self.WWW, RRType.A),
            authority=(RRset.from_records([
                ResourceRecord(zone, RRType.NS, 172800, ns1),
                ResourceRecord(zone, RRType.NS, 172800, ns2),
            ]),),
            additional=(
                RRset.from_records(
                    [ResourceRecord(ns1, RRType.A, 172800, "10.0.47.1")]
                ),
                RRset.from_records(
                    [ResourceRecord(ns2, RRType.A, 172800, "10.0.47.2")]
                ),
            ),
            message_id=0x0102,
        )
        assert encode_message(message).hex() == (
            "01028080000100000002000203777777037a34370362697a0000010001c01000"
            "0200010002a3000006036e7331c010c010000200010002a3000006036e7332c0"
            "10c029000100010002a30000040a002f01c03b000100010002a30000040a002f"
            "02"
        )

    def test_oversize_answer_truncates_to_tc_and_zero_counts(self):
        name = Name.from_text("big.z47.biz.")
        message = Message(
            question=Question(name, RRType.TXT),
            answer=(RRset.from_records([
                ResourceRecord(
                    name, RRType.TXT, 60, f"filler-{i:02d}-" + "x" * 38
                )
                for i in range(10)
            ]),),
            message_id=5,
        )
        assert len(encode_message(message)) == 639
        packet = encode_message(
            message, raw_labels=("BIG", "z47", "biz"), max_size=512
        )
        assert packet.hex() == (
            "000582800001000000000000"
            "03424947037a34370362697a0000100001"
        )

    def test_soa_in_authority(self):
        message = Message(
            question=Question(Name.from_text("nope.biz."), RRType.A),
            rcode=Rcode.NXDOMAIN,
            authoritative=True,
            authority=(RRset.from_records([ResourceRecord(
                Name.from_text("biz."), RRType.SOA, 900,
                "ns1.biz. hostmaster.biz. 2007010101 300",
            )]),),
            message_id=0x7777,
        )
        assert encode_message(message).hex() == (
            "777784830001000000010000046e6f70650362697a0000010001c01100060001"
            "000003840027036e7331c0110a686f73746d6173746572c01177a08b35000000"
            "0000000000000000000000012c"
        )

    def test_mixed_case_multi_record_answer(self):
        message = Message(
            question=Question(self.WWW, RRType.A),
            answer=(RRset.from_records([
                ResourceRecord(self.WWW, RRType.A, 300, f"10.0.1.{i}")
                for i in (7, 8, 9)
            ]),),
            message_id=3,
        )
        packet = encode_message(
            message,
            message_id=0x0A0B,
            raw_labels=("WWW", "z47", "BiZ"),
            recursion_desired=True,
            max_size=UDP_PAYLOAD_MAX,
        )
        assert packet.hex() == (
            "0a0b8180000100030000000003575757037a34370342695a0000010001c00c00"
            "0100010000012c00040a000107c00c000100010000012c00040a000108c00c00"
            "0100010000012c00040a000109"
        )

    def test_cname_chain_compresses_rdata_against_the_answer(self):
        alias = Name.from_text("alias.z47.biz.")
        message = Message(
            question=Question(alias, RRType.A),
            authoritative=True,
            answer=(
                RRset.from_records(
                    [ResourceRecord(alias, RRType.CNAME, 600, self.WWW)]
                ),
                RRset.from_records([
                    ResourceRecord(self.WWW, RRType.A, 300, "10.0.1.7"),
                    ResourceRecord(self.WWW, RRType.A, 300, "10.0.1.8"),
                ]),
            ),
            message_id=0x4242,
        )
        assert encode_message(message).hex() == (
            "42428480000100030000000005616c696173037a34370362697a0000010001c0"
            "0c0005000100000258000603777777c012c02b000100010000012c00040a0001"
            "07c02b000100010000012c00040a000108"
        )

    def test_ns_glue_and_soa_share_one_compression_table(self):
        """Out-of-zone NS target, glue for both targets and an SOA whose
        rname (``hostmaster.z47.biz.``) is text, not an interned name."""
        zone = Name.from_text("z47.biz.")
        ns1 = Name.from_text("ns1.z47.biz.")
        ns2 = Name.from_text("ns2.other.net.")
        message = Message(
            question=Question(self.WWW, RRType.MX),
            authoritative=True,
            authority=(
                RRset.from_records([
                    ResourceRecord(zone, RRType.NS, 86400, ns1),
                    ResourceRecord(zone, RRType.NS, 86400, ns2),
                ]),
                RRset.from_records([ResourceRecord(
                    zone, RRType.SOA, 900,
                    "ns1.z47.biz. hostmaster.z47.biz. 2007010101 300",
                )]),
            ),
            additional=(
                RRset.from_records(
                    [ResourceRecord(ns1, RRType.A, 86400, "10.0.47.1")]
                ),
                RRset.from_records(
                    [ResourceRecord(ns2, RRType.A, 86400, "10.9.9.2")]
                ),
                RRset.from_records(
                    [ResourceRecord(ns2, RRType.AAAA, 86400, "2001:db8::2")]
                ),
            ),
            message_id=0x1357,
        )
        packet = encode_message(message, raw_labels=("Www", "Z47", "biz"))
        assert packet.hex() == (
            "13578480000100000003000303577777035a34370362697a00000f0001c01000"
            "020001000151800006036e7331c010c0100002000100015180000f036e733205"
            "6f74686572036e657400c01000060001000003840023c0290a686f73746d6173"
            "746572c01077a08b350000000000000000000000000000012cc0290001000100"
            "01518000040a002f01c03b000100010001518000040a090902c03b001c000100"
            "015180001020010db8000000000000000000000002"
        )

    def test_mixed_case_tc_fallback_keeps_only_the_question(self):
        big = Name.from_text("big.z47.biz.")
        message = Message(
            question=Question(big, RRType.TXT),
            answer=(RRset.from_records([
                ResourceRecord(big, RRType.TXT, 60, f"row-{i:02d}-" + "y" * 50)
                for i in range(12)
            ]),),
            message_id=9,
        )
        packet = encode_message(
            message,
            message_id=0xFFFE,
            raw_labels=("bIg", "Z47", "BIZ"),
            recursion_desired=True,
            max_size=UDP_PAYLOAD_MAX,
        )
        assert packet.hex() == (
            "fffe8380000100000000000003624967035a34370342495a0000100001"
        )

    def test_soa_text_names_compress_against_each_other(self):
        """The rname reuses the mname's tail ``dns-host.example.``, a
        name nothing has to have interned."""
        message = Message(
            question=Question(Name.from_text("nope.z48.biz."), RRType.A),
            rcode=Rcode.NXDOMAIN,
            authoritative=True,
            authority=(RRset.from_records([ResourceRecord(
                Name.from_text("z48.biz."), RRType.SOA, 900,
                "ns.dns-host.example. hostmaster.dns-host.example. 42 300",
            )]),),
            message_id=0x2468,
        )
        assert encode_message(message).hex() == (
            "246884830001000000010000046e6f7065037a34380362697a000001000"
            "1c01100060001000003840036026e7308646e732d686f7374076578616d"
            "706c65000a686f73746d6173746572c02d0000002a00000000000000000"
            "00000000000012c"
        )

    def test_raw_labels_of_another_name_still_seed_compression(self):
        """An echo that is not a case variant of the qname is written as
        given; its interned suffix ``z47.biz.`` still compresses the
        answer's owner."""
        message = Message(
            question=Question(self.WWW, RRType.A),
            answer=(RRset.from_records(
                [ResourceRecord(self.WWW, RRType.A, 60, "10.0.1.7")]
            ),),
            message_id=1,
        )
        packet = encode_message(message, raw_labels=("mail", "Z47", "biz"))
        assert packet.hex() == (
            "000180800001000100000000046d61696c035a34370362697a00000100010377"
            "7777c011000100010000003c00040a000107"
        )

    @pytest.mark.parametrize(
        "record",
        [
            ResourceRecord(WWW, RRType.A, 60, "10.0.1"),
            ResourceRecord(WWW, RRType.A, 60, "10.0.1.256"),
            ResourceRecord(WWW, RRType.A, 60, "1.2.3.4.5"),
            ResourceRecord(WWW, RRType.A, 2**32, "10.0.1.7"),
        ],
        ids=["short-quad", "octet-256", "five-octets", "ttl-2**32"],
    )
    def test_unencodable_records_still_raise(self, record):
        message = Message(
            question=Question(self.WWW, RRType.A),
            answer=(RRset.from_records([record]),),
        )
        with pytest.raises(WireFormatError):
            encode_message(message)

    @pytest.mark.parametrize("max_size", [None, UDP_PAYLOAD_MAX])
    @pytest.mark.parametrize(
        "owner",
        [WWW, Name.from_text("host.z47.biz.")],
        ids=["question-owned", "cname-reached"],
    )
    @pytest.mark.parametrize(
        "ttl, address",
        [
            (60, "10.0.1"),
            (60, "10.0.1.256"),
            (60, "1.2.3.4.5"),
            (2**32, "10.0.1.7"),
        ],
        ids=["short-quad", "octet-256", "five-octets", "ttl-2**32"],
    )
    def test_unencodable_served_records_still_raise(
        self, ttl, address, owner, max_size
    ):
        """The served encoder writes an answer owned by the question's
        name without the writer, and any other through it; both keep
        the writer's checks."""
        query = decode_query(encode_query(Question(self.WWW, RRType.A), 1))
        record = ResourceRecord(owner, RRType.A, ttl, address)
        with pytest.raises(WireFormatError):
            encode_response(
                query, Rcode.NOERROR, RRset.from_records([record]),
                max_size=max_size,
            )

    def test_64_octet_label_still_raises(self):
        question = Question(self.WWW, RRType.A)
        with pytest.raises(WireFormatError, match="not encodable"):
            encode_query(question, 1, raw_labels=("x" * 64, "biz"))
        with pytest.raises(WireFormatError, match="not encodable"):
            encode_message(
                Message(question=question), raw_labels=("x" * 64, "biz")
            )


_WWW = TestPinnedBytes.WWW
_BIG = Name.from_text("big.z47.biz.")


class TestServedReplies:
    """``encode_response`` over a decoded query: the hit-path packets of
    :class:`TestPinnedBytes`, octet for octet, with no Message built."""

    @pytest.mark.parametrize(
        "question, records, message_id, raw, rd, expected",
        [
            (
                Question(_WWW, RRType.A),
                [ResourceRecord(_WWW, RRType.A, 3600, "10.0.1.7")],
                0xBEEF, ("wWw", "Z47", "bIz"), True,
                "beef81800001000100000000"
                "03775777035a34370362497a0000010001"
                "c00c00010001" "00000e10" "0004" "0a000107",
            ),
            (
                Question(_WWW, RRType.A),
                [ResourceRecord(_WWW, RRType.A, 300, f"10.0.1.{i}") for i in (7, 8, 9)],
                0x0A0B, ("WWW", "z47", "BiZ"), True,
                "0a0b8180000100030000000003575757037a34370342695a0000010001c00c00"
                "0100010000012c00040a000107c00c000100010000012c00040a000108c00c00"
                "0100010000012c00040a000109",
            ),
            (
                Question(_BIG, RRType.TXT),
                [ResourceRecord(_BIG, RRType.TXT, 60, f"row-{i:02d}-" + "y" * 50)
                 for i in range(12)],
                0xFFFE, ("bIg", "Z47", "BIZ"), True,
                "fffe8380000100000000000003624967035a34370342495a0000100001",
            ),
            (
                Question(_BIG, RRType.TXT),
                [ResourceRecord(_BIG, RRType.TXT, 60, f"filler-{i:02d}-" + "x" * 38)
                 for i in range(10)],
                5, ("BIG", "z47", "biz"), False,
                "000582800001000000000000"
                "03424947037a34370362697a0000100001",
            ),
        ],
        ids=["hit", "three-records", "tc-mixed-case", "tc-no-rd"],
    )
    def test_served_reply_matches_the_pinned_bytes(
        self, question, records, message_id, raw, rd, expected
    ):
        query = decode_query(encode_query(
            question, message_id, recursion_desired=rd, raw_labels=raw
        ))
        packet = encode_response(
            query, Rcode.NOERROR, RRset.from_records(records),
            max_size=UDP_PAYLOAD_MAX,
        )
        assert packet.hex() == expected

    def test_negative_reply_is_header_and_question(self):
        query = decode_query(encode_query(
            Question(_WWW, RRType.A), 0x0102, raw_labels=("WWW", "z47", "biz")
        ))
        packet = encode_response(query, Rcode.NXDOMAIN, None)
        assert packet.hex() == (
            "01028183000100000000000003575757037a34370362697a0000010001"
        )


class TestQueryDecoding:
    def test_round_trip_preserves_raw_case(self):
        """0x20 case mixing survives: canonical Name is lowercased but
        the question octets are the client's."""
        question = Question(Name.from_text("www.example.com"), RRType.A)
        packet = encode_query(
            question, 99, raw_labels=("WwW", "ExAmPlE", "CoM")
        )
        decoded = decode_query(packet)
        assert decoded.message_id == 99
        assert decoded.question == question
        assert decoded.question_octets == (
            b"\x03WwW\x07ExAmPlE\x03CoM\x00" + struct.pack("!HH", 1, 1)
        )
        assert decoded.recursion_desired
        assert decoded.opcode == 0

    def test_response_bit_rejected(self):
        packet = bytearray(
            encode_query(Question(Name.from_text("a.b"), RRType.A), 1)
        )
        packet[2] |= FLAG_QR >> 8
        with pytest.raises(WireFormatError, match="QR"):
            decode_query(bytes(packet))

    def test_short_packet_rejected(self):
        with pytest.raises(WireFormatError, match="shorter"):
            decode_query(b"\x00\x01\x00")

    def test_multi_question_rejected(self):
        packet = bytearray(
            encode_query(Question(Name.from_text("a.b"), RRType.A), 1)
        )
        packet[5] = 2  # qdcount
        with pytest.raises(WireFormatError, match="one question"):
            decode_query(bytes(packet))

    def test_forward_pointer_rejected(self):
        packet = (
            struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
            + struct.pack("!H", 0xC000 | 400)
            + struct.pack("!HH", 1, 1)
        )
        with pytest.raises(WireFormatError, match="pointer"):
            decode_query(packet)

    @pytest.mark.parametrize(
        "qname",
        [b"\xc0\x00", b"\xc0\x0b", b"\x01a\xc0\x0c", b"\x01a\x01b\xc0\x0e"],
        ids=["to-header-start", "to-header-end", "to-own-start", "to-own-label"],
    )
    def test_pointer_in_a_query_name_is_refused(self, qname):
        """A query name is never compressed: a pointer in it can only aim
        into the header or back into the name, and is FORMERR material."""
        with pytest.raises(WireFormatError, match="pointer"):
            decode_query(_query_packet(qname + b"\x00"))

    def test_label_running_off_the_end_rejected(self):
        packet = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0) + b"\x3fabc"
        with pytest.raises(WireFormatError):
            decode_query(packet)


class TestTruncationAndTcp:
    def _big_message(self) -> Message:
        name = Name.from_text("big.example.com")
        records = [
            ResourceRecord(name, RRType.TXT, 60, f"filler-{i:03d}-" + "x" * 40)
            for i in range(20)
        ]
        return Message(
            question=Question(name, RRType.TXT),
            answer=(RRset.from_records(records),),
            message_id=5,
        )

    def test_oversize_udp_response_truncates_to_question(self):
        message = self._big_message()
        full = encode_message(message)
        assert len(full) > UDP_PAYLOAD_MAX
        packet = encode_message(message, max_size=UDP_PAYLOAD_MAX)
        assert len(packet) <= UDP_PAYLOAD_MAX
        decoded = decode_message(packet)
        assert decoded.truncated
        assert decoded.message.answer == ()
        assert decoded.message.question == message.question
        assert packet[2] & (FLAG_TC >> 8)

    def test_tcp_path_carries_the_full_answer(self):
        message = self._big_message()
        framed = frame_tcp(encode_message(message))
        (length,) = struct.unpack("!H", framed[:2])
        assert length == len(framed) - 2
        decoded = decode_message(framed[2:])
        assert not decoded.truncated
        assert decoded.message == message

    def test_fits_exactly_is_not_truncated(self):
        name = Name.from_text("a.b")
        message = Message(
            question=Question(name, RRType.A),
            answer=(
                RRset.from_records([ResourceRecord(name, RRType.A, 1, "1.2.3.4")]),
            ),
            message_id=1,
        )
        packet = encode_message(message, max_size=UDP_PAYLOAD_MAX)
        assert not decode_message(packet).truncated

    def test_overlong_tcp_message_rejected(self):
        with pytest.raises(WireFormatError, match="TCP framing"):
            frame_tcp(b"\x00" * 0x10000)


# ---------------------------------------------------------------------------
# Property-based round trips
# ---------------------------------------------------------------------------

_LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12
)
_NAMES = st.lists(_LABEL, min_size=1, max_size=3).map(
    lambda labels: Name.from_text(".".join(labels) + ".")
)
_TTLS = st.integers(min_value=0, max_value=2**31)
_MESSAGE_IDS = st.integers(min_value=0, max_value=0xFFFF)

_A_DATA = st.tuples(*(st.integers(0, 255),) * 4).map(
    lambda quad: ".".join(str(octet) for octet in quad)
)
_AAAA_DATA = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda value: str(ipaddress.IPv6Address(value))
)
_TXT_DATA = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -._", max_size=40
)


@st.composite
def _soa_data(draw) -> str:
    mname = draw(_NAMES)
    rname = draw(_NAMES)
    serial = draw(st.integers(0, 2**32 - 1))
    minimum = draw(st.integers(0, 2**32 - 1))
    return f"{mname} {rname} {serial} {minimum}"


@st.composite
def _rrset(draw, name: Name, rrtype: RRType) -> RRset:
    ttl = draw(_TTLS)
    if rrtype is RRType.A:
        data = draw(st.lists(_A_DATA, min_size=1, max_size=3, unique=True))
    elif rrtype is RRType.AAAA:
        data = draw(st.lists(_AAAA_DATA, min_size=1, max_size=2, unique=True))
    elif rrtype in (RRType.NS, RRType.CNAME):
        data = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    elif rrtype is RRType.SOA:
        data = [draw(_soa_data())]
    else:  # TXT
        data = draw(st.lists(_TXT_DATA, min_size=1, max_size=2, unique=True))
    return RRset.from_records(
        [ResourceRecord(name, rrtype, ttl, value) for value in data]
    )


_SECTION_TYPES = st.sampled_from(
    (RRType.A, RRType.AAAA, RRType.NS, RRType.CNAME, RRType.SOA, RRType.TXT)
)


@st.composite
def _section(draw, max_rrsets: int = 2) -> tuple[RRset, ...]:
    # Adjacent records sharing an (owner, type) are re-bundled into one
    # RRset on decode, so each section draws distinct keys.
    keys = draw(
        st.lists(
            st.tuples(_NAMES, _SECTION_TYPES),
            max_size=max_rrsets,
            unique=True,
        )
    )
    return tuple(draw(_rrset(name, rrtype)) for name, rrtype in keys)


@st.composite
def _message(draw) -> Message:
    return Message(
        question=Question(draw(_NAMES), draw(_SECTION_TYPES)),
        rcode=draw(st.sampled_from(Rcode)),
        authoritative=draw(st.booleans()),
        answer=draw(_section()),
        authority=draw(_section()),
        additional=draw(_section(max_rrsets=1)),
        message_id=draw(_MESSAGE_IDS),
    )


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(message=_message())
    def test_message_round_trips(self, message: Message):
        """Message -> encode_message -> decode_message is the identity
        (modulo float TTLs, which the strategies keep integral)."""
        decoded = decode_message(encode_message(message))
        assert decoded.message == message
        assert not decoded.truncated

    @settings(max_examples=150, deadline=None)
    @given(message=_message(), mid=_MESSAGE_IDS, rd=st.booleans())
    def test_server_side_overrides_round_trip(self, message, mid, rd):
        """The serving path's id rewrite and RD echo land in the header."""
        packet = encode_message(
            message, message_id=mid, recursion_desired=rd
        )
        decoded = decode_message(packet)
        assert decoded.message.message_id == mid
        assert bool(packet[2] & (FLAG_RD >> 8)) == rd
        assert decoded.recursion_available
        other = Message(
            question=message.question,
            rcode=message.rcode,
            authoritative=message.authoritative,
            answer=message.answer,
            authority=message.authority,
            additional=message.additional,
            message_id=mid,
        )
        assert decoded.message == other

    @settings(max_examples=100, deadline=None)
    @given(
        name=_NAMES,
        rrtype=_SECTION_TYPES,
        mid=_MESSAGE_IDS,
        rd=st.booleans(),
    )
    def test_query_round_trips(self, name, rrtype, mid, rd):
        question = Question(name, rrtype)
        packet = encode_query(question, mid, recursion_desired=rd)
        decoded = decode_query(packet)
        assert decoded.question == question
        assert decoded.message_id == mid
        assert decoded.recursion_desired == rd
        assert decoded.question_octets == packet[HEADER.size:]

    @settings(max_examples=150, deadline=None)
    @given(
        message=_message(),
        mid=_MESSAGE_IDS,
        rd=st.booleans(),
        shout=st.booleans(),
        max_size=st.sampled_from((None, UDP_PAYLOAD_MAX, 64)),
        owned=st.booleans(),
    )
    def test_served_reply_is_the_message_reply(
        self, message, mid, rd, shout, max_size, owned
    ):
        """``encode_response`` over a decoded query writes the octets
        ``encode_message`` writes for the same rcode and answer: the
        echoed question, and every later name compressed against it the
        same way (NS/CNAME targets and SOA text names included).
        ``owned`` moves the answer onto the question's name, which the
        served encoder writes without its compression table when the
        rdata holds no name."""
        question = message.question
        raw = (
            tuple(label.upper() for label in question.name.labels)
            if shout else None
        )
        query = decode_query(
            encode_query(question, mid, recursion_desired=rd, raw_labels=raw)
        )
        answer = message.answer[0] if message.answer else None
        if owned and answer is not None:
            answer = RRset.from_records([
                ResourceRecord(question.name, r.rrtype, r.ttl, r.data, r.rrclass)
                for r in answer.records
            ])
        reply = Message(
            question=question,
            rcode=message.rcode,
            answer=() if answer is None else (answer,),
            message_id=mid,
        )
        assert encode_response(
            query, message.rcode, answer, max_size=max_size
        ) == encode_message(
            reply, raw_labels=raw, recursion_desired=rd, max_size=max_size
        )

    @settings(max_examples=100, deadline=None)
    @given(message=_message())
    def test_truncation_never_exceeds_the_ceiling(self, message: Message):
        packet = encode_message(message, max_size=UDP_PAYLOAD_MAX)
        assert len(packet) <= UDP_PAYLOAD_MAX or len(
            encode_message(message)
        ) <= UDP_PAYLOAD_MAX
        decoded = decode_message(packet)
        assert decoded.message.question == message.question
        if decoded.truncated:
            assert decoded.message.answer == ()

    @settings(max_examples=100, deadline=None)
    @given(message=_message())
    def test_compression_round_trips_class(self, message: Message):
        """Every decoded record keeps class IN (the only class encoded)."""
        decoded = decode_message(encode_message(message))
        for rrset in decoded.message.all_rrsets():
            for record in rrset:
                assert record.rrclass is RRClass.IN


# ---------------------------------------------------------------------------
# Hostile bytes: every packet is a message or a WireFormatError
# ---------------------------------------------------------------------------


def _query_packet(qname_wire: bytes, rrtype: int = 1, flags: int = 0) -> bytes:
    return (
        struct.pack("!HHHHHH", 1, flags, 1, 0, 0, 0)
        + qname_wire
        + struct.pack("!HH", rrtype, 1)
    )


class TestHostileBytes:
    @pytest.mark.parametrize(
        "label",
        [b"a.b", b"a b", b"a\xffb", b"a/b", b"*", b"\x00x"],
        ids=["dot", "space", "non-ascii", "slash", "star", "nul"],
    )
    def test_label_octets_outside_the_name_alphabet_are_rejected(self, label):
        """A wire label is one label: ``\\x03a.b\\x03com`` used to decode
        as the three-label ``a.b.com.``."""
        qname = bytes([len(label)]) + label + b"\x03com\x00"
        with pytest.raises(WireFormatError, match="label"):
            decode_query(_query_packet(qname))
        with pytest.raises(WireFormatError, match="label"):
            decode_message(_query_packet(qname, flags=FLAG_QR))

    def test_mixed_case_label_is_one_lowercased_label(self):
        decoded = decode_query(_query_packet(b"\x04Ab-_\x03COM\x00"))
        assert decoded.question_octets == b"\x04Ab-_\x03COM\x00\x00\x01\x00\x01"
        assert decoded.question.name is Name.from_text("ab-_.com.")

    def test_name_length_limit_counts_the_root_octet(self):
        fits = b"".join(b"\x3f" + b"a" * 63 for _ in range(3)) + b"\x3d" + b"b" * 61
        decoded = decode_query(_query_packet(fits + b"\x00"))
        assert decoded.question.name.wire_length() == 255
        over = b"".join(b"\x3f" + b"c" * 63 for _ in range(3)) + b"\x3e" + b"d" * 62
        with pytest.raises(WireFormatError, match="name exceeds 255 octets"):
            decode_query(_query_packet(over + b"\x00"))

    def test_unknown_type_is_a_wire_error(self):
        with pytest.raises(WireFormatError, match="not a valid RRType"):
            decode_query(_query_packet(b"\x01a\x00", rrtype=0xFFFF))

    def test_non_utf8_rdata_is_a_wire_error(self):
        packet = (
            struct.pack("!HHHHHH", 1, FLAG_QR, 1, 1, 0, 0)
            + b"\x01a\x00" + struct.pack("!HH", 16, 1)
            + struct.pack("!H", 0xC00C) + struct.pack("!HHIH", 16, 1, 60, 3)
            + b"\x02\xff\xfe"
        )
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_message(packet)

    def test_bad_label_behind_a_pointer_is_a_wire_error(self):
        """NS rdata pointing back at a label the name alphabet refuses."""
        packet = (
            struct.pack("!HHHHHH", 1, FLAG_QR, 1, 1, 0, 0)
            + b"\x01a\x00" + struct.pack("!HH", 2, 1)
            + struct.pack("!H", 0xC00C) + struct.pack("!HHIH", 2, 1, 60, 6)
            + b"\x03b c" + struct.pack("!H", 0xC00C)
        )
        with pytest.raises(WireFormatError, match="label"):
            decode_message(packet)


@st.composite
def _mutated_packet(draw) -> bytes:
    """A valid response, then a few overwritten octets and maybe a cut."""
    message = draw(_message())
    shout = tuple(label.upper() for label in message.question.name.labels)
    packet = bytearray(encode_message(
        message, raw_labels=shout if draw(st.booleans()) else None
    ))
    for _ in range(draw(st.integers(0, 4))):
        packet[draw(st.integers(0, len(packet) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.none(), st.integers(0, len(packet))))
    return bytes(packet[:cut])


def _decoded_or_wire_error(decode, data: bytes):
    try:
        return decode(data)
    except WireFormatError:
        return None


class TestDecoderProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=80), _mutated_packet()))
    def test_any_bytes_decode_or_raise_wire_format_error(self, data: bytes):
        """Neither decoder lets another exception out, and when both take
        the packet (QR cleared for one, set for the other) they agree on
        the question."""
        head = bytearray(data)
        if len(head) >= 3:
            head[2] &= ~(FLAG_QR >> 8) & 0xFF
        query = _decoded_or_wire_error(decode_query, bytes(head))
        if len(head) >= 3:
            head[2] |= FLAG_QR >> 8
        response = _decoded_or_wire_error(decode_message, bytes(head))
        assert query is None or isinstance(query, DecodedQuery)
        assert response is None or isinstance(response, DecodedMessage)
        if query is not None and response is not None:
            assert response.message.question == query.question

"""Pinned bytes of what the UDP front end sends.

Each test feeds a fixed list of datagrams to ``DnsFrontEnd._on_udp`` on a
started front end, captures every reply at the moment it is sent, and
compares one SHA-256 over all of them with a digest taken from the
codec before it was rewritten to echo the question and encode from the
resolution.  The datagrams are handed over in one synchronous stretch,
so no timer runs between them and the replies depend only on the world
and the order of the queries.

* the ``serve_closed_warm`` benchmark's query list: the first 10,000
  qnames of the SMALL week trace at seed 7, one A query each, the ids
  the benchmark gives them;
* a small hand-built world that reaches every shape the served path
  writes: CNAME chains, NODATA, NXDOMAIN, SERVFAIL (a delegation whose
  only server does not exist), mixed-case (0x20) qnames, answers over
  512 octets (TC), NS and SOA answers, the RD bit clear, and malformed
  datagrams that get FORMERR or no reply.
"""

from __future__ import annotations

import asyncio
import hashlib
import struct

from repro.dns.message import Question
from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import ZoneBuilder
from repro.experiments.scenarios import Scale, make_scenario
from repro.hierarchy.builder import BuiltHierarchy
from repro.hierarchy.tree import ZoneTree
from repro.serve.server import DnsFrontEnd
from repro.serve.spec import ServeSpec
from repro.serve.wire import encode_query
from repro.workload.generator import TraceGenerator, WorkloadConfig

#: ``Scale.SMALL``'s week trace, as the serve benchmark generates it.
_WEEK = WorkloadConfig(duration_days=7.0, queries_per_day=9_000, num_clients=250)
_WARM_NAMES = 10_000

_WARM_DIGEST = "47ea12bb83bd33a02907f08316266302d557b4f8c3c41281d29018cbdbb4be5d"
_CORPUS_DIGEST = "9d58c028af3e8598474560e2fcb898d0297af884aefbb3df7d41a115f3b1b946"
_CORPUS_REPLIES = 29
"""31 datagrams: the runt and the response get no reply."""


def _served(front_end: DnsFrontEnd, packets: list[bytes]) -> list[bytes]:
    """Every reply ``_on_udp`` sends for ``packets``, in order."""
    sent: list[bytes] = []

    def capture(payload: bytes, addr: tuple) -> None:
        sent.append(payload)

    front_end._send_udp = capture  # type: ignore[method-assign]
    client = ("127.0.0.1", 5300)
    for packet in packets:
        front_end._on_udp(packet, client)
    return sent


def _digest(replies: list[bytes]) -> str:
    sha = hashlib.sha256()
    for reply in replies:
        sha.update(struct.pack("!H", len(reply)))
        sha.update(reply)
    return sha.hexdigest()


def _serve(spec: ServeSpec, packets: list[bytes], built=None) -> list[bytes]:
    async def run() -> list[bytes]:
        front_end = DnsFrontEnd(spec)
        if built is not None:
            front_end._built = built
        await front_end.start()
        try:
            return _served(front_end, packets)
        finally:
            await front_end.stop()

    return asyncio.run(run())


def test_warm_benchmark_queries_reply_with_pinned_bytes():
    built = make_scenario(Scale.SMALL, seed=7).built
    trace = TraceGenerator(built.catalog, _WEEK, seed=7).generate(
        "serve_closed_warm", stream=7
    )
    names = [query.qname for query in trace.queries[:_WARM_NAMES]]
    packets = [
        encode_query(Question(name, RRType.A), index % 0xFFFF + 1)
        for index, name in enumerate(names)
    ]
    spec = ServeSpec(port=0, metrics_port=-1, scale=Scale.SMALL, seed=7)
    replies = _serve(spec, packets)
    assert len(replies) == _WARM_NAMES
    assert _digest(replies) == _WARM_DIGEST


# ---------------------------------------------------------------------------
# The hand-built corpus
# ---------------------------------------------------------------------------

_TTL = 3600.0


def _name(text: str) -> Name:
    return Name.from_text(text)


def _irrs(zone: str, servers: list[tuple[str, str]]) -> InfrastructureRecordSet:
    apex = _name(zone)
    ns = RRset.from_records([
        ResourceRecord(apex, RRType.NS, _TTL, _name(host)) for host, _ in servers
    ])
    glue = tuple(
        RRset.from_records([ResourceRecord(_name(host), RRType.A, _TTL, address)])
        for host, address in servers
    )
    return InfrastructureRecordSet(apex, ns, glue)


def _corpus_world() -> BuiltHierarchy:
    """``.`` → ``test.`` → ``example.test.``, ``other.test.`` and
    ``lame.test.``, whose one server address answers nothing."""
    tree = ZoneTree()
    servers = {
        ".": [("a.root.", "10.0.0.1")],
        "test.": [("ns1.test.", "10.0.0.2")],
        "example.test.": [
            ("ns1.example.test.", "10.0.0.3"), ("ns2.example.test.", "10.0.0.4"),
        ],
        "other.test.": [("ns1.other.test.", "10.0.0.5")],
        "lame.test.": [("ns1.lame.test.", "10.0.9.9")],
    }

    def builder(zone: str) -> ZoneBuilder:
        made = ZoneBuilder(_name(zone), default_ttl=_TTL)
        for host, address in servers[zone]:
            made.add_ns(host, address, ttl=_TTL)
        return made

    def add(made: ZoneBuilder) -> None:
        zone = made.build()
        tree.add_zone(zone, [
            AuthoritativeServer(_name(host), address)
            for host, address in servers[str(zone.name)]
        ])

    root = builder(".")
    root.delegate(_irrs("test.", servers["test."]))
    add(root)
    tld = builder("test.")
    for child in ("example.test.", "other.test.", "lame.test."):
        tld.delegate(_irrs(child, servers[child]))
    add(tld)

    example = builder("example.test.").set_soa(minimum=300.0)
    example.add_address("www.example.test.", "10.1.0.1", ttl=600.0)
    example.add_address("mail.example.test.", "10.1.0.2", ttl=600.0)
    for index in range(40):
        example.add_address("big.example.test.", f"10.2.0.{index + 1}", ttl=60.0)
    example.add_record(ResourceRecord(
        _name("txt.example.test."), RRType.TXT, 600.0, "v=spf1 -all"))
    for alias, target in (
        ("web.example.test.", "www.example.test."),
        ("deep.example.test.", "web.example.test."),
        ("out.example.test.", "www.other.test."),
    ):
        example.add_record(ResourceRecord(
            _name(alias), RRType.CNAME, 600.0, _name(target)))
    add(example)

    other = builder("other.test.")
    other.add_address("www.other.test.", "10.3.0.1", ttl=600.0)
    add(other)
    return BuiltHierarchy(tree=tree, catalog={}, provider_zones=[])


def _query(text: str, rrtype: RRType = RRType.A, message_id: int = 1,
           raw: str | None = None, rd: bool = True) -> bytes:
    name = _name(text)
    labels = tuple(raw.rstrip(".").split(".")) if raw is not None else None
    return encode_query(
        Question(name, rrtype), message_id, recursion_desired=rd, raw_labels=labels
    )


def _corpus() -> list[bytes]:
    header = struct.Struct("!HHHHHH")
    asks = [
        ("www.example.test.", RRType.A, None),
        ("www.example.test.", RRType.A, None),
        ("www.example.test.", RRType.A, "WwW.ExAmPlE.TeSt."),
        ("mail.example.test.", RRType.A, None),
        ("web.example.test.", RRType.A, None),
        ("deep.example.test.", RRType.A, None),
        ("deep.example.test.", RRType.A, "DEEP.example.TEST."),
        ("out.example.test.", RRType.A, None),
        ("web.example.test.", RRType.CNAME, "Web.Example.Test."),
        ("www.example.test.", RRType.TXT, None),
        ("www.example.test.", RRType.TXT, None),
        ("www.example.test.", RRType.AAAA, "WWW.EXAMPLE.TEST."),
        ("txt.example.test.", RRType.TXT, None),
        ("example.test.", RRType.NS, None),
        ("example.test.", RRType.SOA, "eXample.test."),
        ("nope.example.test.", RRType.A, None),
        ("nope.example.test.", RRType.A, "NoPe.example.test."),
        ("host.nowhere.", RRType.A, None),
        ("www.lame.test.", RRType.A, None),
        ("www.lame.test.", RRType.A, "www.LAME.test."),
        ("big.example.test.", RRType.A, None),
        ("big.example.test.", RRType.A, "BiG.eXaMpLe.TeSt."),
        ("www.other.test.", RRType.A, None),
    ]
    packets = [
        _query(text, rrtype, 0x100 + index, raw)
        for index, (text, rrtype, raw) in enumerate(asks)
    ]
    packets.append(_query("www.example.test.", RRType.A, 0x200, rd=False))
    packets.append(_query("big.example.test.", RRType.A, 0x201, rd=False))
    good = _query("www.example.test.", RRType.A, 0x300)
    packets += [
        header.pack(0x301, 0x0100, 2, 0, 0, 0) + good[12:] + good[12:],  # FORMERR
        header.pack(0x302, 0x0100, 1, 0, 0, 0),  # no question: FORMERR
        header.pack(0x303, 0, 1, 0, 0, 0) + b"\x03a b\x00\x00\x01\x00\x01",  # FORMERR
        good[:11],  # shorter than a header: no reply
        header.pack(0x304, 0x8000, 1, 0, 0, 0) + good[12:],  # a response: no reply
        good,
    ]
    return packets


def test_corpus_replies_with_pinned_bytes():
    spec = ServeSpec(port=0, metrics_port=-1, scale=Scale.TINY, seed=7)
    replies = _serve(spec, _corpus(), built=_corpus_world())
    assert len(replies) == _CORPUS_REPLIES
    assert _digest(replies) == _CORPUS_DIGEST

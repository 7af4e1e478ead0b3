"""End-to-end: real sockets against the serve front end.

The acceptance check from the issue lives here: a live UDP query must
return the same ANSWER rrsets the simulated CachingServer produces for
an identically built scenario — the front end is a transport skin, not
a different resolver.
"""

from __future__ import annotations

import asyncio
import re
import socket
import struct
import threading
from contextlib import asynccontextmanager

import pytest

from repro.core.caching_server import CachingServer, Resolution, ResolutionOutcome
from repro.core.schemes import parse_scheme
from repro.dns.message import Question, Rcode
from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale, make_scenario
from repro.serve.server import DnsFrontEnd
from repro.serve.spec import ServeSpec
from repro.serve.wire import (
    FLAG_QR,
    WireFormatError,
    decode_message,
    encode_query,
    frame_tcp,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network

_SPEC = ServeSpec(
    host="127.0.0.1", port=0, metrics_port=0, scale=Scale.TINY, seed=7
)


@asynccontextmanager
async def _front_end(spec: ServeSpec = _SPEC):
    front_end = DnsFrontEnd(spec)
    await front_end.start()
    try:
        yield front_end
    finally:
        await front_end.stop()


class _OneShot(asyncio.DatagramProtocol):
    def __init__(self, future: asyncio.Future) -> None:
        self._future = future

    def datagram_received(self, data: bytes, addr: tuple) -> None:
        if not self._future.done():
            self._future.set_result(data)


async def _udp_query(
    address: tuple[str, int], packet: bytes, timeout: float = 5.0
) -> bytes:
    loop = asyncio.get_running_loop()
    future: asyncio.Future[bytes] = loop.create_future()
    transport, _ = await loop.create_datagram_endpoint(
        lambda: _OneShot(future), remote_addr=address
    )
    try:
        transport.sendto(packet)
        return await asyncio.wait_for(future, timeout)
    finally:
        transport.close()


async def _tcp_query(
    address: tuple[str, int], packet: bytes, timeout: float = 5.0
) -> bytes:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(frame_tcp(packet))
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(2), timeout)
        (length,) = struct.unpack("!H", header)
        return await asyncio.wait_for(reader.readexactly(length), timeout)
    finally:
        writer.close()


async def _closed_loop(
    address: tuple[str, int], names, *, queries: int, clients: int
) -> list:
    """``clients`` closed-loop stubs, one A query in flight each, share
    ``queries`` questions round-robin over ``names``; returns every
    decoded reply."""
    replies: list = []

    async def client(first: int) -> None:
        for index in range(first, queries, clients):
            question = Question(names[index % len(names)], RRType.A)
            packet = encode_query(question, index + 1)
            replies.append(decode_message(await _udp_query(address, packet)))

    await asyncio.gather(*(client(first) for first in range(clients)))
    return replies


def _answered(replies) -> int:
    return sum(
        reply.message.rcode is Rcode.NOERROR and bool(reply.message.answer)
        for reply in replies
    )


def _collect_loop_errors() -> list:
    """Route what reaches the running loop's exception handler into the
    returned list (instead of the log)."""
    reported: list = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: reported.append(context)
    )
    return reported


def _resolved(front_end: DnsFrontEnd, query):
    """The front end's reply to a decoded ``query``, sent through no
    socket, as the client decodes it."""
    return decode_message(front_end._resolve(query, 0xFFFF)).message


async def _scrape(address: tuple[str, int]) -> str:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        return raw.decode("utf-8")
    finally:
        writer.close()


def _simulated_resolutions(names, rrtype=RRType.A):
    """Resolve ``names`` on a CachingServer built exactly like the front
    end's (same scale/seed/scheme), on virtual time."""
    scenario = make_scenario(Scale.TINY, seed=_SPEC.seed)
    engine = SimulationEngine()
    server = CachingServer(
        root_hints=scenario.built.tree.root_hints(),
        network=Network(scenario.built.tree),
        clock=engine,
        config=parse_scheme(_SPEC.scheme),
    )
    return {
        name: server.handle_stub_query(name, rrtype, engine.now)
        for name in names
    }


class TestUdpPath:
    def test_live_answers_match_the_simulated_core(self):
        """Acceptance: the wire ANSWER section carries the same rrsets
        (owner, rdata, published TTL) the simulated resolver returns."""

        async def run():
            async with _front_end() as front_end:
                names = front_end.sample_names(3)
                assert len(names) == 3
                replies = {}
                for index, name in enumerate(names):
                    packet = encode_query(
                        Question(name, RRType.A), 0x4000 + index
                    )
                    replies[name] = await _udp_query(
                        front_end.udp_address, packet
                    )
                return names, replies, front_end.metrics.udp_queries

        names, replies, udp_queries = asyncio.run(run())
        assert udp_queries == 3
        expected = _simulated_resolutions(names)
        for index, name in enumerate(names):
            decoded = decode_message(replies[name])
            message = decoded.message
            assert message.message_id == 0x4000 + index
            assert message.rcode is Rcode.NOERROR
            assert not decoded.truncated
            (served,) = message.answer
            simulated = expected[name].answer
            assert simulated is not None
            assert served.name == simulated.name
            assert served.rrtype is RRType.A
            assert {str(r.data) for r in served.records} == {
                str(r.data) for r in simulated.records
            }
            assert served.ttl == float(int(simulated.ttl))

    def test_unknown_name_is_nxdomain(self):
        async def run():
            async with _front_end() as front_end:
                packet = encode_query(
                    Question(Name.from_text("no.such.host.zz"), RRType.A), 77
                )
                return await _udp_query(front_end.udp_address, packet)

        decoded = decode_message(asyncio.run(run()))
        assert decoded.message.rcode is Rcode.NXDOMAIN
        assert decoded.message.answer == ()
        assert decoded.message.message_id == 77

    def test_missing_type_is_noerror_nodata_fresh_and_from_the_cache(self):
        """A host that has an A but no TXT: NOERROR with an empty answer
        both times.  The second reply comes from the negative cache,
        which used to replay every entry as NXDOMAIN — telling the stub
        the whole name was gone (RFC 2308 §2.2 keeps the two apart)."""

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                replies, upstream = [], []
                for turn in range(2):
                    replies.append(await _udp_query(
                        front_end.udp_address,
                        encode_query(Question(name, RRType.TXT), 90 + turn),
                    ))
                    upstream.append(
                        front_end.server.metrics.cs_demand_queries
                    )
                address = await _udp_query(
                    front_end.udp_address,
                    encode_query(Question(name, RRType.A), 99),
                )
                return replies, upstream, address

        replies, upstream, address = asyncio.run(run())
        for turn, reply in enumerate(replies):
            message = decode_message(reply).message
            assert message.message_id == 90 + turn
            assert message.rcode is Rcode.NOERROR
            assert message.answer == ()
        assert 0 < upstream[0] == upstream[1]  # the replay asked nobody
        assert decode_message(address).message.answer != ()

    def test_mixed_case_qname_is_echoed_verbatim(self):
        """0x20-style case mixing must survive into the response's
        question section (clients compare the echoed octets)."""

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                raw = tuple(
                    label.upper() if i % 2 == 0 else label
                    for i, label in enumerate(name.labels)
                )
                packet = encode_query(
                    Question(name, RRType.A), 5, raw_labels=raw
                )
                return raw, await _udp_query(front_end.udp_address, packet)

        raw, reply = asyncio.run(run())
        wire_qname = b"".join(
            bytes([len(label)]) + label.encode() for label in raw
        )
        assert wire_qname in reply
        assert decode_message(reply).message.rcode is Rcode.NOERROR

    def test_garbage_gets_formerr(self):
        async def run():
            async with _front_end() as front_end:
                # A valid header claiming one question, then nothing.
                packet = struct.pack("!HHHHHH", 0xABCD, 0, 1, 0, 0, 0)
                reply = await _udp_query(front_end.udp_address, packet)
                return reply, front_end.metrics.formerr

        reply, formerr = asyncio.run(run())
        assert formerr == 1
        message_id, flags = struct.unpack_from("!HH", reply)
        assert message_id == 0xABCD
        assert flags & FLAG_QR
        assert flags & 0xF == int(Rcode.FORMERR)

    def test_pointer_in_the_qname_gets_formerr_and_the_next_query_an_answer(self):
        """A query name that ends in a compression pointer (here back at
        its own first label) is refused with FORMERR under its id, and
        the query after it is answered."""

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                bad = (
                    struct.pack("!HHHHHH", 0x1111, 0x0100, 1, 0, 0, 0)
                    + b"\x01a\xc0\x0c" + struct.pack("!HH", 1, 1)
                )
                rejected = await _udp_query(front_end.udp_address, bad)
                good = encode_query(Question(name, RRType.A), 0x2222)
                answered = await _udp_query(front_end.udp_address, good)
                return rejected, answered, front_end.metrics.formerr

        rejected, answered, formerr = asyncio.run(run())
        assert formerr == 1
        message_id, flags = struct.unpack_from("!HH", rejected)
        assert message_id == 0x1111
        assert flags & FLAG_QR
        assert flags & 0xF == int(Rcode.FORMERR)
        message = decode_message(answered).message
        assert message.message_id == 0x2222
        assert message.rcode is Rcode.NOERROR and message.answer

    def test_queued_datagrams_are_answered_in_batches_with_timers_and_tcp_between(
        self,
    ):
        """Six batches' worth of datagrams and more, queued before the
        loop turns, all get answers; a WallClock timer and a TCP query
        armed at the same moment run between two batches, not after the
        last one."""
        from repro.serve.server import UDP_BATCH

        total = 6 * UDP_BATCH + 5

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                address = front_end.udp_address
                reader, writer = await asyncio.open_connection(*address)
                ask = encode_query(Question(name, RRType.A), 0x0F00)
                marks: dict[str, int] = {}

                async def tcp_exchange() -> bytes:
                    writer.write(frame_tcp(ask))
                    (length,) = struct.unpack(
                        "!H", await asyncio.wait_for(reader.readexactly(2), 5.0)
                    )
                    return await reader.readexactly(length)

                try:
                    await tcp_exchange()  # the handler now waits on the stream
                    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                        client.bind(("127.0.0.1", 0))
                        for index in range(total):
                            client.sendto(encode_query(
                                Question(name, RRType.A), 0x1000 + index
                            ), address)
                        clock = front_end.clock
                        clock.schedule(clock.now(), lambda _now: marks.setdefault(
                            "timer", front_end.metrics.udp_queries))
                        tcp_reply = await tcp_exchange()
                        marks["tcp"] = front_end.metrics.udp_queries
                        for _ in range(500):
                            if front_end.metrics.udp_queries == total:
                                break
                            await asyncio.sleep(0.01)
                        client.setblocking(False)
                        replies = []
                        try:
                            while True:
                                replies.append(client.recv(4096))
                        except BlockingIOError:
                            pass
                finally:
                    writer.close()
                return marks, tcp_reply, replies

        marks, tcp_reply, replies = asyncio.run(run())
        assert sorted(
            decode_message(reply).message.message_id for reply in replies
        ) == [0x1000 + index for index in range(total)]
        assert decode_message(tcp_reply).message.rcode is Rcode.NOERROR
        for mark in ("timer", "tcp"):
            assert 0 < marks[mark] < total, marks
            assert marks[mark] % UDP_BATCH == 0, marks

    def test_query_padded_to_the_udp_maximum_is_answered(self):
        """A query padded with trailing zero octets to 65,507 bytes, the
        largest IPv4 UDP payload, arrives whole in the receive buffer
        and gets the normal answer: the decoder ignores what follows
        the question."""

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 21)
                padded = packet + bytes(65_507 - len(packet))
                plain = await _udp_query(front_end.udp_address, packet)
                large = await _udp_query(front_end.udp_address, padded)
                return plain, large, front_end.metrics.formerr

        plain, large, formerr = asyncio.run(run())
        assert formerr == 0
        expected = decode_message(plain).message
        answered = decode_message(large).message
        assert answered.message_id == 21
        assert answered.rcode is Rcode.NOERROR
        assert answered.answer and answered.answer == expected.answer

    def test_burst_from_one_socket_gets_every_reply(self):
        """64 queries sent back to back from one socket, before any reply
        is read, get 64 replies, one per query id."""
        burst = 64

        async def run():
            async with _front_end() as front_end:
                names = front_end.sample_names(4)
                loop = asyncio.get_running_loop()
                done: asyncio.Future[None] = loop.create_future()
                replies: list[bytes] = []

                class Collect(asyncio.DatagramProtocol):
                    def datagram_received(self, data: bytes, addr: tuple) -> None:
                        replies.append(data)
                        if len(replies) == burst and not done.done():
                            done.set_result(None)

                transport, _ = await loop.create_datagram_endpoint(
                    Collect, remote_addr=front_end.udp_address
                )
                try:
                    for index in range(burst):
                        transport.sendto(encode_query(
                            Question(names[index % len(names)], RRType.A),
                            0x100 + index,
                        ))
                    await asyncio.wait_for(done, 10.0)
                finally:
                    transport.close()
                return replies, front_end.metrics.udp_queries

        replies, udp_queries = asyncio.run(run())
        assert udp_queries == burst
        messages = [decode_message(reply).message for reply in replies]
        assert sorted(m.message_id for m in messages) == [
            0x100 + index for index in range(burst)
        ]
        assert all(m.rcode is Rcode.NOERROR and m.answer for m in messages)

    def test_udp_port_can_be_bound_again_once_stop_returns(self):
        async def run():
            front_end = DnsFrontEnd(_SPEC)
            await front_end.start()
            host, port = front_end.udp_address
            await front_end.stop()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.bind((host, port))
                return sock.getsockname()[1], port

        rebound, port = asyncio.run(run())
        assert rebound == port


class TestTcpPath:
    def test_tcp_carries_the_same_answer_as_udp(self):
        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 9)
                udp_reply = await _udp_query(front_end.udp_address, packet)
                tcp_reply = await _tcp_query(front_end.udp_address, packet)
                return udp_reply, tcp_reply, front_end.metrics.tcp_queries

        udp_reply, tcp_reply, tcp_queries = asyncio.run(run())
        assert tcp_queries == 1
        udp_message = decode_message(udp_reply).message
        tcp_message = decode_message(tcp_reply).message
        assert tcp_message.answer == udp_message.answer
        assert tcp_message.rcode is Rcode.NOERROR

    def test_truncated_tcp_frame_closes_quietly(self):
        """A frame that announces 100 octets, sends 5 and closes is a
        quiet close, not an exception out of the connection handler —
        and the listener keeps answering."""

        async def run():
            async with _front_end() as front_end:
                loop = asyncio.get_running_loop()
                unhandled = []
                loop.set_exception_handler(
                    lambda _loop, context: unhandled.append(context)
                )
                _, writer = await asyncio.open_connection(
                    *front_end.udp_address
                )
                writer.write(struct.pack("!H", 100) + b"short")
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 12)
                reply = await _tcp_query(front_end.udp_address, packet)
                await asyncio.sleep(0.05)
                return unhandled, reply

        unhandled, reply = asyncio.run(run())
        assert unhandled == []
        assert decode_message(reply).message.rcode is Rcode.NOERROR

    def test_truncated_udp_falls_back_to_tcp(self, monkeypatch):
        """Force a tiny UDP ceiling: the UDP reply degrades to TC +
        question, and the TCP retry carries the full answer."""
        # The TINY zone's answers all fit RFC 1035's 512 octets: push
        # the ceiling under them to exercise the fallback end to end.
        monkeypatch.setattr("repro.serve.server.UDP_PAYLOAD_MAX", 40)

        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 31)
                udp_reply = await _udp_query(front_end.udp_address, packet)
                tcp_reply = await _tcp_query(front_end.udp_address, packet)
                return udp_reply, tcp_reply, front_end.metrics.truncated

        udp_reply, tcp_reply, truncated = asyncio.run(run())
        assert truncated == 1
        udp_decoded = decode_message(udp_reply)
        assert udp_decoded.truncated
        assert udp_decoded.message.answer == ()
        tcp_decoded = decode_message(tcp_reply)
        assert not tcp_decoded.truncated
        assert tcp_decoded.message.answer
        assert tcp_decoded.message.question == udp_decoded.message.question


class TestFrontEndSemantics:
    def _query_for(self, front_end: DnsFrontEnd):
        from repro.serve.wire import decode_query

        name = front_end.sample_names(1)[0]
        return decode_query(encode_query(Question(name, RRType.A), 1))

    def test_front_end_runs_on_the_loop_thread(self):
        """start() adds no thread, and 8 closed-loop clients over 2
        names get all 2000 queries answered, every one of them resolved
        by the core (none joins another's resolution)."""

        async def run():
            front_end = DnsFrontEnd(_SPEC)
            threads = threading.active_count()
            await front_end.start()
            try:
                added = threading.active_count() - threads
                replies = await asyncio.wait_for(
                    _closed_loop(
                        front_end.udp_address,
                        front_end.sample_names(2),
                        queries=2000,
                        clients=8,
                    ),
                    timeout=60.0,
                )
                return added, replies, front_end.server.metrics.sr_queries
            finally:
                await front_end.stop()

        added, replies, resolved = asyncio.run(run())
        assert added == 0
        assert _answered(replies) == len(replies) == 2000
        assert resolved == 2000

    def test_swr_serves_the_lapsed_rrset_then_revalidates(self):
        """Stale answers in serve are the core's: under ``swr:30`` a
        lapsed entry is answered at once (STALE_HIT), refetched by a
        timer body on the loop, and hit fresh afterwards."""
        import dataclasses

        spec = dataclasses.replace(_SPEC, scheme="swr:30")

        async def run():
            async with _front_end(spec) as front_end:
                server, clock = front_end.server, front_end.clock
                query = self._query_for(front_end)
                name = query.question.name
                warm = _resolved(front_end, query)
                server.cache.entry(name, RRType.A).expires_at = clock.now() - 1
                lapsed = _resolved(front_end, query)
                served = server.metrics.sr_stale_hits
                for _ in range(500):
                    expiry = server.cache.expires_at(name, RRType.A, clock.now())
                    if expiry is not None:
                        break
                    await asyncio.sleep(0.01)
                fresh = _resolved(front_end, query)
                return (warm, lapsed, served, expiry, fresh,
                        front_end.scrape(), server.metrics)

        warm, lapsed, served, expiry, fresh, scrape, core = (
            asyncio.run(run())
        )
        assert lapsed.rcode is Rcode.NOERROR
        assert lapsed.answer == warm.answer and lapsed.answer
        assert served == 1
        assert expiry is not None  # the background refetch landed
        assert fresh.answer == warm.answer
        assert core.sr_stale_hits == 1
        assert "\nrepro_serve_stale_served_total 1\n" in scrape
        assert core.swr_refreshes == 1
        assert core.sr_cache_hits == 1

    def test_front_end_holds_no_answers(self):
        """After 200 distinct questions (existing names and NXDOMAINs)
        the front end holds nothing keyed by question: no container on
        the object has an element."""
        from repro.serve.wire import decode_query

        async def run():
            async with _front_end() as front_end:
                names = list(front_end.sample_names(150))
                names += [
                    Name.from_text(f"nx{i}.no.such.zz")
                    for i in range(200 - len(names))
                ]
                rcodes = set()
                for index, name in enumerate(names):
                    query = decode_query(
                        encode_query(Question(name, RRType.A), index + 1)
                    )
                    rcodes.add(_resolved(front_end, query).rcode)
                held = {
                    attr: value
                    for attr, value in vars(front_end).items()
                    if isinstance(value, (dict, set, list)) and value
                }
                return len(set(names)), rcodes, held

        distinct, rcodes, held = asyncio.run(run())
        assert distinct == 200
        assert rcodes == {Rcode.NOERROR, Rcode.NXDOMAIN}
        assert held == {}

    def test_resolver_exception_answers_servfail_and_survives(self):
        """A resolution that raises is a SERVFAIL on the wire (not a
        client timeout), is counted and reported to the loop's exception
        handler, and the next query is answered."""

        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 21)

                def boom(*_args):
                    raise KeyError("resolver bug")

                front_end.server.handle_stub_query = boom
                failed = await _udp_query(
                    front_end.udp_address, packet, timeout=1.0
                )
                servfail = front_end.metrics.servfail
                del front_end.server.handle_stub_query
                answered = await _udp_query(front_end.udp_address, packet)
                return failed, servfail, reported, answered

        failed, servfail, reported, answered = asyncio.run(run())
        assert decode_message(failed).message.rcode is Rcode.SERVFAIL
        assert decode_message(failed).message.message_id == 21
        assert servfail == 1
        assert [type(c["exception"]) for c in reported] == [KeyError]
        assert decode_message(answered).message.rcode is Rcode.NOERROR

    @staticmethod
    async def _unencodable_then_answered(front_end, exchange) -> tuple:
        """One query whose answer the codec cannot encode (an A record
        of three octets), then the same query resolved for real."""
        reported = _collect_loop_errors()
        name = front_end.sample_names(1)[0]
        packet = encode_query(Question(name, RRType.A), 22)
        bad = RRset.from_records([ResourceRecord(name, RRType.A, 60, "10.0.1")])

        def unencodable(*_args):
            return Resolution(ResolutionOutcome.ANSWERED, bad)

        front_end.server.handle_stub_query = unencodable
        failed = await exchange(front_end.udp_address, packet, timeout=1.0)
        servfail = front_end.metrics.servfail
        del front_end.server.handle_stub_query
        answered = await exchange(front_end.udp_address, packet)
        await asyncio.sleep(0.05)  # let the TCP handlers see their EOF
        return failed, servfail, list(reported), answered

    @pytest.mark.parametrize("exchange", [_udp_query, _tcp_query], ids=["udp", "tcp"])
    def test_unencodable_answer_is_servfail_not_a_traceback(self, exchange):
        """An answer the codec refuses is a SERVFAIL on the wire, counted
        and reported to the loop's exception handler, like a resolution
        that raises; the next query is answered."""

        async def run():
            async with _front_end() as front_end:
                return await self._unencodable_then_answered(front_end, exchange)

        failed, servfail, reported, answered = asyncio.run(run())
        message = decode_message(failed).message
        assert message.rcode is Rcode.SERVFAIL and message.answer == ()
        assert message.message_id == 22
        assert servfail == 1
        assert [type(c["exception"]) for c in reported] == [WireFormatError]
        assert decode_message(answered).message.rcode is Rcode.NOERROR

    def test_a_reply_too_long_to_frame_is_truncated_over_tcp(self):
        """An answer past the 65,535 octets a TCP length prefix frames
        degrades to TC over TCP too, instead of ending the connection."""

        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.TXT), 23)
                huge = RRset.from_records([
                    ResourceRecord(name, RRType.TXT, 60, f"{i:03d}" + "x" * 250)
                    for i in range(300)
                ])

                def oversized(*_args):
                    return Resolution(ResolutionOutcome.ANSWERED, huge)

                front_end.server.handle_stub_query = oversized
                reply = await _tcp_query(front_end.udp_address, packet)
                await asyncio.sleep(0.05)  # let the TCP handler see its EOF
                return reply, list(reported)

        reply, reported = asyncio.run(run())
        decoded = decode_message(reply)
        assert decoded.truncated and decoded.message.answer == ()
        assert decoded.message.rcode is Rcode.NOERROR
        assert decoded.message.message_id == 23
        assert reported == []

    def test_raising_timer_body_is_reported_not_swallowed(self):
        """A renewal timer body runs on the loop, and one that raises
        reaches the loop's exception handler; serving carries on."""

        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()

                def body(_now):
                    raise ValueError("timer bug")

                front_end.clock.schedule(front_end.clock.now(), body)
                for _ in range(200):
                    if reported:
                        break
                    await asyncio.sleep(0.005)
                reply = _resolved(front_end, self._query_for(front_end))
                return reported, reply

        reported, reply = asyncio.run(run())
        assert [type(c["exception"]) for c in reported] == [ValueError]
        assert reply.rcode is Rcode.NOERROR

    def test_one_waiters_reply_failure_does_not_starve_the_others(
        self, monkeypatch
    ):
        """A datagram whose reply fails to go out is reported to the
        loop's exception handler, and the next datagram is answered."""
        import repro.serve.server as server_module

        encode_response = server_module.encode_response
        failures = [OSError("send failed")]

        def fails_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return encode_response(*args, **kwargs)

        monkeypatch.setattr(server_module, "encode_response", fails_once)

        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()
                name = front_end.sample_names(1)[0]
                loop = asyncio.get_running_loop()
                lost, _ = await loop.create_datagram_endpoint(
                    asyncio.DatagramProtocol,
                    remote_addr=front_end.udp_address,
                )
                lost.sendto(encode_query(Question(name, RRType.A), 40))
                reply = await _udp_query(
                    front_end.udp_address,
                    encode_query(Question(name, RRType.A), 41),
                )
                lost.close()
                return reported, reply, front_end.metrics.udp_queries

        reported, reply, received = asyncio.run(run())
        assert [type(c["exception"]) for c in reported] == [OSError]
        assert received == 2
        message = decode_message(reply).message
        assert message.message_id == 41
        assert message.rcode is Rcode.NOERROR and message.answer

    def test_stop_cancels_every_pending_timer(self):
        """Renewal timers armed by a resolution (the default
        ``combination`` scheme) and a timer armed by hand are all
        cancelled by stop(): none is pending and none fires after."""

        async def run():
            front_end = DnsFrontEnd(_SPEC)
            await front_end.start()
            clock = front_end.clock
            _resolved(front_end, self._query_for(front_end))
            fired: list[float] = []
            clock.schedule(clock.now() + 0.05, fired.append)
            armed = clock.pending_timers()
            await front_end.stop()
            left = clock.pending_timers()
            await asyncio.sleep(0.1)
            return armed, left, fired

        armed, left, fired = asyncio.run(run())
        assert armed > 1
        assert left == 0
        assert fired == []

    def test_failed_bind_unwinds_the_started_resolver_and_sockets(self):
        """A TCP bind that fails after UDP bound raises, and leaves no
        socket behind."""
        import dataclasses
        import socket

        async def run():
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as held:
                held.bind(("127.0.0.1", 0))
                held.listen()
                port = held.getsockname()[1]
                front_end = DnsFrontEnd(
                    dataclasses.replace(_SPEC, port=port)
                )
                with pytest.raises(OSError):
                    await front_end.start()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                probe.bind(("127.0.0.1", port))

        asyncio.run(run())

    def test_scrape_names_are_pinned(self):
        """The front end's scrape exposes exactly these counters; the
        singleflight one reads 0 by construction."""

        async def run():
            async with _front_end() as front_end:
                return await _scrape(front_end.metrics_address)

        body = asyncio.run(run())
        assert set(re.findall(r"^(repro_serve_\w+)", body, re.MULTILINE)) == {
            "repro_serve_queries_total",
            "repro_serve_singleflight_hits_total",
            "repro_serve_stale_served_total",
            "repro_serve_truncated_total",
            "repro_serve_formerr_total",
            "repro_serve_servfail_total",
        }
        assert "\nrepro_serve_singleflight_hits_total 0\n" in body

    def test_metrics_endpoint_exposes_both_layers(self):
        async def run():
            async with _front_end() as front_end:
                name = front_end.sample_names(1)[0]
                packet = encode_query(Question(name, RRType.A), 2)
                await _udp_query(front_end.udp_address, packet)
                if front_end.metrics_address is None:
                    raise AssertionError("metrics listener did not bind")
                return await _scrape(front_end.metrics_address)

        body = asyncio.run(run())
        assert body.startswith("HTTP/1.0 200 OK")
        assert 'repro_serve_queries_total{transport="udp"} 1' in body
        assert 'repro_serve_queries_total{transport="tcp"} 0' in body
        # The bus's rendered tally rides along in the same scrape:
        # the resolution emitted core events through the bus.
        assert "repro_events_total" in body

    def test_selftest_driver_round_trip(self):
        """Closed-loop clients get every query answered by a healthy
        front end."""

        async def run():
            async with _front_end() as front_end:
                return await _closed_loop(
                    front_end.udp_address,
                    front_end.sample_names(4),
                    queries=24,
                    clients=3,
                )

        replies = asyncio.run(run())
        assert len(replies) == 24
        assert _answered(replies) == 24

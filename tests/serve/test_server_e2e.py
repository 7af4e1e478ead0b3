"""End-to-end: real sockets against the serve front end.

The acceptance check from the issue lives here: a live UDP query must
return the same ANSWER rrsets the simulated CachingServer produces for
an identically built scenario — the front end is a transport skin, not
a different resolver.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from contextlib import asynccontextmanager

import pytest

from repro.core.caching_server import CachingServer
from repro.core.schemes import parse_scheme
from repro.dns.message import Question, Rcode
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale, make_scenario
from repro.serve.server import DnsFrontEnd
from repro.serve.spec import ServeSpec
from repro.serve.wire import (
    FLAG_QR,
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


def _collect_loop_errors() -> list:
    """Route what reaches the running loop's exception handler into the
    returned list (instead of the log)."""
    reported: list = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: reported.append(context)
    )
    return reported


async def _on_resolver(front_end: DnsFrontEnd, function):
    """Run ``function`` on the resolver thread (through the mailbox,
    serialised with stub queries) and return its result."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()
    front_end._jobs.put(
        lambda: loop.call_soon_threadsafe(future.set_result, function())
    )
    return await future


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

    def test_truncated_udp_falls_back_to_tcp(self):
        """Force a tiny UDP ceiling: the UDP reply degrades to TC +
        question, and the TCP retry carries the full answer."""

        async def run():
            import dataclasses

            # The TINY zone's answers are all sub-64-octet, below the
            # spec's validated floor — push the ceiling under them on a
            # private spec copy to exercise the fallback end to end.
            spec = dataclasses.replace(_SPEC)
            object.__setattr__(spec, "udp_payload_max", 40)
            async with _front_end(spec) as front_end:
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

    def test_singleflight_collapses_concurrent_identical_questions(self):
        async def run():
            async with _front_end() as front_end:
                query = self._query_for(front_end)
                gate = threading.Event()
                # Stall the (single) resolver thread so the leader's
                # resolution stays in flight while followers arrive.
                front_end._jobs.put(gate.wait)
                leader = asyncio.ensure_future(front_end._resolve(query))
                await asyncio.sleep(0.05)
                follower = asyncio.ensure_future(front_end._resolve(query))
                await asyncio.sleep(0.05)
                hits = front_end.metrics.singleflight_hits
                gate.set()
                first, second = await asyncio.gather(leader, follower)
                return hits, first, second, front_end.metrics.stale_served

        hits, first, second, stale = asyncio.run(run())
        assert hits == 1
        # The follower awaited the leader's flight; a fresh answer is
        # not a stale serve, whoever received it.
        assert stale == 0
        assert first.answer == second.answer
        assert first.rcode is Rcode.NOERROR and first.answer

    def test_swr_serves_the_lapsed_rrset_then_revalidates(self):
        """Stale answers in serve are the core's: under ``swr:30`` a
        lapsed entry is answered at once (STALE_HIT), refetched in the
        background on the resolver thread, and hit fresh afterwards."""
        import dataclasses

        spec = dataclasses.replace(_SPEC, scheme="swr:30")

        async def run():
            async with _front_end(spec) as front_end:
                server, clock = front_end.server, front_end.clock
                query = self._query_for(front_end)
                name = query.question.name
                warm = await front_end._resolve(query)

                def lapse():
                    entry = server.cache.entry(name, RRType.A)
                    entry.expires_at = clock.now() - 1

                await _on_resolver(front_end, lapse)
                lapsed = await front_end._resolve(query)
                served = front_end.metrics.stale_served
                for _ in range(500):
                    expiry = await _on_resolver(
                        front_end,
                        lambda: server.cache.expires_at(
                            name, RRType.A, clock.now()
                        ),
                    )
                    if expiry is not None:
                        break
                    await asyncio.sleep(0.01)
                fresh = await front_end._resolve(query)
                return (warm, lapsed, served, expiry, fresh,
                        front_end.metrics.stale_served, server.metrics)

        warm, lapsed, served, expiry, fresh, final_served, core = (
            asyncio.run(run())
        )
        assert lapsed.rcode is Rcode.NOERROR
        assert lapsed.answer == warm.answer and lapsed.answer
        assert served == 1
        assert expiry is not None  # the background refetch landed
        assert fresh.answer == warm.answer
        assert final_served == 1 == core.sr_stale_hits
        assert core.swr_refreshes == 1
        assert core.sr_cache_hits == 1

    def test_front_end_holds_no_answers(self):
        """After 200 distinct questions (existing names and NXDOMAINs)
        the quiet front end holds nothing keyed by question: the
        singleflight table has drained and no other container on the
        object has an element."""
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
                    rcodes.add((await front_end._resolve(query)).rcode)
                held = {
                    attr: value
                    for attr, value in vars(front_end).items()
                    if isinstance(value, (dict, set, list)) and value
                }
                return len(set(names)), rcodes, front_end._inflight, held

        distinct, rcodes, inflight, held = asyncio.run(run())
        assert distinct == 200
        assert rcodes == {Rcode.NOERROR, Rcode.NXDOMAIN}
        assert inflight == {}
        assert held == {}

    def test_idle_client_budgets_are_released(self):
        """The per-client budget map holds only clients with a
        resolution in flight: N sequential one-query clients (UDP
        sources are spoofable) leave it empty."""
        import dataclasses

        spec = dataclasses.replace(_SPEC, client_fetch_budget=2)

        async def run():
            async with _front_end(spec) as front_end:
                query = self._query_for(front_end)
                for index in range(50):
                    reply = await front_end._resolve(
                        query, client=f"10.1.0.{index}"
                    )
                    assert reply.rcode is Rcode.NOERROR
                return dict(front_end._client_budgets)

        assert asyncio.run(run()) == {}

    def test_client_budget_rejects_concurrent_over_budget_queries(self):
        """With a 1-unit client budget, a second *distinct* question from
        the same client while the first is still resolving is refused
        with SERVFAIL; other clients and post-release queries proceed."""
        import dataclasses

        from repro.serve.wire import decode_query

        spec = dataclasses.replace(_SPEC, client_fetch_budget=1)

        async def run():
            async with _front_end(spec) as front_end:
                names = front_end.sample_names(3)
                queries = [
                    decode_query(encode_query(Question(name, RRType.A), i + 1))
                    for i, name in enumerate(names)
                ]
                gate = threading.Event()
                front_end._jobs.put(gate.wait)
                leader = asyncio.ensure_future(
                    front_end._resolve(queries[0], client="10.9.9.9")
                )
                await asyncio.sleep(0.05)
                # Distinct question (no singleflight), same client: the
                # one-unit budget is spent, so this must fail *now*,
                # without waiting on the stalled resolver thread.
                rejected = await asyncio.wait_for(
                    front_end._resolve(queries[1], client="10.9.9.9"),
                    timeout=1.0,
                )
                rejections = front_end.metrics.budget_rejections
                # A different client has its own untouched budget.
                other = asyncio.ensure_future(
                    front_end._resolve(queries[1], client="10.8.8.8")
                )
                await asyncio.sleep(0.05)
                gate.set()
                first = await leader
                other_reply = await other
                # The leader released its unit: the client may query again.
                third = await front_end._resolve(
                    queries[2], client="10.9.9.9"
                )
                return (rejected, rejections, first, other_reply, third,
                        front_end.metrics.budget_rejections,
                        front_end.metrics.render())

        (rejected, rejections, first, other_reply, third,
         final_rejections, rendered) = asyncio.run(run())
        assert rejected.rcode is Rcode.SERVFAIL
        assert rejected.answer == ()
        assert rejections == 1
        assert first.rcode is Rcode.NOERROR
        assert other_reply.rcode is Rcode.NOERROR
        assert third.rcode is Rcode.NOERROR
        assert final_rejections == 1
        assert "repro_serve_budget_rejections_total 1" in rendered

    def test_resolver_exception_answers_servfail_and_survives(self):
        """A resolution that raises is a SERVFAIL on the wire (not a
        client timeout), is reported to the loop's exception handler,
        leaves nothing in flight, and the resolver thread carries on."""

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
                inflight = dict(front_end._inflight)
                del front_end.server.handle_stub_query
                answered = await _udp_query(front_end.udp_address, packet)
                return failed, servfail, inflight, reported, answered

        failed, servfail, inflight, reported, answered = asyncio.run(run())
        assert decode_message(failed).message.rcode is Rcode.SERVFAIL
        assert decode_message(failed).message.message_id == 21
        assert servfail == 1
        assert inflight == {}
        assert [type(c["exception"]) for c in reported] == [KeyError]
        assert decode_message(answered).message.rcode is Rcode.NOERROR

    def test_raising_timer_body_is_reported_not_swallowed(self):
        """Renewal timer bodies reach the resolver thread through the
        same mailbox and the same guard."""

        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()

                def body(_now):
                    raise ValueError("timer bug")

                front_end.clock.schedule(0.0, body)
                for _ in range(200):
                    if reported:
                        break
                    await asyncio.sleep(0.005)
                reply = await front_end._resolve(self._query_for(front_end))
                return reported, reply

        reported, reply = asyncio.run(run())
        assert [type(c["exception"]) for c in reported] == [ValueError]
        assert reply.rcode is Rcode.NOERROR

    def test_one_waiters_reply_failure_does_not_starve_the_others(self):
        async def run():
            async with _front_end() as front_end:
                reported = _collect_loop_errors()
                query = self._query_for(front_end)
                gate = threading.Event()
                front_end._jobs.put(gate.wait)

                def broken(_message):
                    raise OSError("send failed")

                front_end._submit(query, "10.0.0.1", broken)
                follower = asyncio.ensure_future(front_end._resolve(query))
                await asyncio.sleep(0.05)
                gate.set()
                reply = await asyncio.wait_for(follower, timeout=2.0)
                return reported, reply

        reported, reply = asyncio.run(run())
        assert [type(c["exception"]) for c in reported] == [OSError]
        assert reply.rcode is Rcode.NOERROR and reply.answer

    def test_overload_sheds_new_questions_with_servfail(self):
        """The in-flight table is bounded: with the resolver stalled,
        questions beyond ``_MAX_INFLIGHT`` are refused at once on the
        loop thread, followers of a flight are still admitted, and the
        admitted ones are all answered once the resolver runs again."""
        from repro.serve.server import _MAX_INFLIGHT
        from repro.serve.wire import decode_query

        extra = 50

        async def run():
            async with _front_end() as front_end:
                gate = threading.Event()
                front_end._jobs.put(gate.wait)
                queries = [
                    decode_query(encode_query(
                        Question(Name.from_text(f"q{i}.no.such.zz"), RRType.A),
                        i & 0xFFFF,
                    ))
                    for i in range(_MAX_INFLIGHT + extra)
                ]
                replies = []
                for query in queries:
                    front_end._submit(query, "10.0.0.1", replies.append)
                shed = list(replies)
                held = len(front_end._inflight)
                servfail = front_end.metrics.servfail
                follower = asyncio.ensure_future(
                    front_end._resolve(queries[0])
                )
                await asyncio.sleep(0.05)
                joined = front_end.metrics.singleflight_hits
                gate.set()
                await asyncio.wait_for(follower, timeout=10.0)
                for _ in range(1000):
                    if not front_end._inflight:
                        break
                    await asyncio.sleep(0.01)
                return (shed, held, servfail, joined, replies,
                        dict(front_end._inflight))

        shed, held, servfail, joined, replies, inflight = asyncio.run(run())
        assert len(shed) == extra == servfail
        assert {message.rcode for message in shed} == {Rcode.SERVFAIL}
        assert held == _MAX_INFLIGHT
        assert joined == 1
        assert len(replies) == _MAX_INFLIGHT + extra
        assert {m.rcode for m in replies[extra:]} == {Rcode.NXDOMAIN}
        assert inflight == {}

    def test_no_query_is_lost_under_thread_switch_pressure(self):
        """Stress the loop<->resolver hand-off: 8 closed-loop clients
        over 2 names with a 10 us switch interval.  Every query is
        answered, each one either led a resolution (reached the core)
        or followed one, and nothing is left in flight."""
        import sys

        from repro.serve.driver import run_load

        async def run():
            async with _front_end() as front_end:
                report = await asyncio.wait_for(
                    run_load(
                        *front_end.udp_address,
                        front_end.sample_names(2),
                        queries=2000,
                        clients=8,
                    ),
                    timeout=60.0,
                )
                return (report, front_end.metrics.singleflight_hits,
                        front_end.server.metrics.sr_queries,
                        dict(front_end._inflight))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report, followers, leaders, inflight = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert report.answered == report.queries == 2000
        assert followers + leaders == 2000
        assert inflight == {}

    def test_stop_with_queries_in_flight(self):
        """stop() with a stalled resolver and leaders pending: returns
        once the running job does, leaves no resolver thread behind and
        no _resolve() future pending."""
        from repro.serve.wire import decode_query

        async def run():
            loop = asyncio.get_running_loop()
            front_end = DnsFrontEnd(_SPEC)
            await front_end.start()
            serving = [
                thread.name for thread in threading.enumerate()
                if thread.name.startswith("repro-resolver")
            ]
            gate = threading.Event()
            front_end._jobs.put(gate.wait)
            leaders = [
                asyncio.ensure_future(front_end._resolve(decode_query(
                    encode_query(Question(name, RRType.A), index + 1)
                )))
                for index, name in enumerate(front_end.sample_names(3))
            ]
            await asyncio.sleep(0.05)
            pending = len(front_end._inflight)
            opener = threading.Timer(0.2, gate.set)
            opener.start()
            begun = loop.time()
            await front_end.stop()
            took = loop.time() - begun
            opener.join()
            await asyncio.wait(leaders, timeout=1.0)
            return (serving, pending, took,
                    [leader.cancelled() for leader in leaders],
                    front_end._pending)

        serving, pending, took, cancelled, left = asyncio.run(run())
        assert serving == ["repro-resolver"]
        assert pending == 3
        assert took < 2.0
        assert cancelled == [True, True, True]
        assert left == set()
        assert not [
            thread for thread in threading.enumerate()
            if thread.name.startswith("repro-resolver")
        ]

    def test_default_spec_has_no_client_budget(self):
        async def run():
            async with _front_end() as front_end:
                return front_end._client_budget("10.9.9.9")

        assert asyncio.run(run()) is None

    def test_negative_client_budget_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(_SPEC, client_fetch_budget=-1)

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
        # The obs PrometheusSink block rides along in the same scrape:
        # the resolution emitted core events through the bus.
        assert "repro_events_total" in body

    def test_selftest_driver_round_trip(self):
        """The closed-loop driver reports every query answered against a
        healthy front end."""
        from repro.serve.driver import run_load

        async def run():
            async with _front_end() as front_end:
                names = front_end.sample_names(4)
                return await run_load(
                    *front_end.udp_address,
                    names,
                    queries=24,
                    clients=3,
                )

        report = asyncio.run(run())
        assert report.queries == 24
        assert report.answered == 24
        assert report.failed == 0
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms >= 0
        parsed = __import__("json").loads(report.to_json())
        assert parsed["answered"] == 24

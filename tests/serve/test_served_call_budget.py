"""The served hit's call budget, counted — no timing involved.

A warm A query through ``repro serve`` is the front end's commonest
datagram, and in CPython its cost is close to the number of Python-level
calls it makes (``tests/core/test_hit_call_budget.py`` counts the core's
share).  This test counts ``call`` events under ``sys.setprofile`` for
one such datagram through ``DnsFrontEnd._on_udp``, with the send
captured, so a frame added to the served path (a codec helper, a clock
method, a compression table the answer does not need) fails here
instead of showing up as a slower benchmark.
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.core.caching_server import CachingServer
from repro.dns.message import Question
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale
from repro.serve import wire
from repro.serve.clock import WallClock
from repro.serve.server import DnsFrontEnd
from repro.serve.spec import ServeSpec

SERVED_HIT_CALLS = 12
"""``_on_udp``, ``decode_query``, ``_resolve``, ``handle_stub_query``,
three quiet-bus counts, the cache's observed get, ``record_sr_query``,
``reply_for``, ``encode_response`` and the captured send."""

_NOT_ON_THE_HIT = (
    wire._Writer.__init__.__code__,
    Name.ancestors.__code__,
    wire._type_and_class.__code__,
)
"""Frames a warm A answer owned by the question's name never needs.
``WallClock.now`` is the fourth, checked as the C function it is."""


def _calls_of_one_served_hit() -> tuple[list, list[bytes]]:
    """Code objects of every Python-level call one warm datagram makes
    through ``_on_udp``, and the replies sent (warm-up included)."""

    async def run() -> tuple[list, list[bytes]]:
        front_end = DnsFrontEnd(ServeSpec(
            host="127.0.0.1", port=0, metrics_port=-1,
            scale=Scale.TINY, seed=7,
        ))
        await front_end.start()
        try:
            sent: list[bytes] = []

            def capture(payload: bytes, addr: tuple) -> None:
                sent.append(payload)

            front_end._send_udp = capture  # type: ignore[method-assign]
            name = front_end.sample_names(1)[0]
            packet = wire.encode_query(Question(name, RRType.A), 7)
            client = ("127.0.0.1", 5300)
            front_end._on_udp(packet, client)  # warm
            seen: list = []

            def on_event(frame, event, arg):
                if event == "call":
                    seen.append(frame.f_code)

            sys.setprofile(on_event)
            try:
                front_end._on_udp(packet, client)
            finally:
                sys.setprofile(None)
            return seen, sent
        finally:
            await front_end.stop()

    return asyncio.run(run())


class TestServedCallBudget:
    def test_a_warm_served_hit_is_twelve_calls(self):
        seen, sent = _calls_of_one_served_hit()
        names = [getattr(code, "co_qualname", code.co_name) for code in seen]
        assert len(seen) <= SERVED_HIT_CALLS, names
        assert seen.count(wire.decode_query.__code__) == 1
        assert seen.count(CachingServer.handle_stub_query.__code__) == 1
        assert seen.count(wire.encode_response.__code__) == 1
        assert not [code for code in seen if code in _NOT_ON_THE_HIT], names
        assert WallClock.now is time.monotonic
        # The counted datagram was a hit, answered like the warm-up.
        assert len(sent) == 2 and sent[0] == sent[1]
        assert sent[1][6:8] == b"\x00\x01"  # one answer record

"""The clock contract: the resolution core only arms and cancels timers.

A replay hands the core its ``SimulationEngine``; ``repro serve`` hands
it a ``WallClock``.  Either way every core entry point takes ``now``
from its caller and a timer body receives its fire time, so a clock
with nothing but ``schedule`` and ``cancel`` must drive a renewal
exactly as the bare engine does.
"""

from __future__ import annotations

import asyncio

from repro.core.caching_server import CachingServer
from repro.core.clock import Clock
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.serve.clock import WallClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network
from tests.helpers import HOUR, build_mini_internet, name

# example.test's NS set lives 1 h; past it, one renewal must have run.
PAST_NS_EXPIRY = 1.5 * HOUR


class TimersOnly:
    """A :class:`Clock` with only the two members the core may call,
    both forwarding to an engine; it cannot tell the time."""

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self.armed: list[float] = []

    def schedule(self, when, action):
        self.armed.append(when)
        return self._engine.schedule(when, action)

    def cancel(self, token):
        return self._engine.cancel(token)


class RecordingEngine(SimulationEngine):
    """The bare engine, noting the instant of every timer it arms."""

    def __init__(self) -> None:
        super().__init__()
        self.armed: list[float] = []

    def schedule(self, time, action):
        self.armed.append(time)
        return super().schedule(time, action)


def _renew_once(engine: SimulationEngine, clock: Clock):
    """Resolve one name over the mini internet under a-lfu:5 and run
    the engine past the zone's NS expiry."""
    tree = build_mini_internet().tree
    metrics = ReplayMetrics()
    server = CachingServer(
        root_hints=tree.root_hints(),
        network=Network(tree),
        clock=clock,
        config=ResilienceConfig.refresh_renew("a-lfu", 5),
        metrics=metrics,
    )
    server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
    engine.advance_to(PAST_NS_EXPIRY)
    return server, metrics


def test_a_clock_that_cannot_tell_the_time_drives_renewal():
    engine = SimulationEngine()
    clock = TimersOnly(engine)
    server, metrics = _renew_once(engine, clock)
    assert server.renewal is not None
    assert server.renewal.renewals_attempted >= 1
    assert metrics.cs_renewal_queries >= 1

    bare = RecordingEngine()
    _renew_once(bare, bare)
    assert clock.armed
    assert clock.armed == bare.armed
    assert isinstance(clock, Clock)


def test_engine_and_wallclock_are_clocks():
    assert isinstance(SimulationEngine(), Clock)
    loop = asyncio.new_event_loop()
    try:
        assert isinstance(WallClock(loop), Clock)
    finally:
        loop.close()

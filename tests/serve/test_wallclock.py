"""WallClock: the Clock protocol on a live asyncio loop.

These tests run a real (short-lived) event loop — they live under
``tests/serve/`` and inherit the serve REP001 allowlance, because
asserting wall-timer behaviour requires reading wall time.
"""

from __future__ import annotations

import asyncio

from repro.core.clock import Clock
from repro.serve.clock import WallClock
from repro.simulation.engine import SimulationEngine


def _run(coro):
    return asyncio.run(coro)


class TestProtocolConformance:
    def test_wallclock_satisfies_clock(self):
        async def check() -> bool:
            clock = WallClock(asyncio.get_running_loop())
            return isinstance(clock, Clock)

        assert _run(check())

    def test_engine_and_wallclock_share_the_contract(self):
        engine = SimulationEngine()
        assert isinstance(engine, Clock)
        for method in ("schedule", "cancel"):
            assert callable(getattr(engine, method))
            assert callable(getattr(WallClock, method))


class TestTimers:
    def test_now_is_monotonic(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            first = clock.now()
            await asyncio.sleep(0.01)
            return first, clock.now()

        first, second = _run(check())
        assert second > first

    def test_schedule_fires_with_the_fire_time(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            fired = asyncio.Event()
            seen: list[float] = []

            def action(when: float) -> None:
                seen.append(when)
                fired.set()

            before = clock.now()
            clock.schedule(before + 0.01, action)
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            return before, seen

        before, seen = _run(check())
        assert len(seen) == 1
        assert seen[0] >= before

    def test_schedule_at_in_the_past_fires_promptly(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            fired = asyncio.Event()
            clock.schedule(clock.now() - 10.0, lambda _now: fired.set())
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            return clock.pending_timers()

        assert _run(check()) == 0

    def test_cancel_prevents_firing(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            fired: list[float] = []
            token = clock.schedule(clock.now() + 0.01, fired.append)
            assert clock.cancel(token)
            assert not clock.cancel(token)  # idempotent: already gone
            await asyncio.sleep(0.05)
            return fired, clock.pending_timers()

        fired, pending = _run(check())
        assert fired == []
        assert pending == 0

    def test_cancel_of_fired_timer_returns_false(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            fired = asyncio.Event()
            token = clock.schedule(clock.now(), lambda _now: fired.set())
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            return clock.cancel(token)

        assert _run(check()) is False

    def test_tokens_are_unique(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            tokens = [
                clock.schedule(clock.now() + 5.0, lambda _now: None)
                for _ in range(10)
            ]
            for token in tokens:
                assert clock.cancel(token)
            return tokens

        tokens = _run(check())
        assert len(set(tokens)) == len(tokens)

    def test_close_cancels_every_pending_timer(self):
        async def check():
            clock = WallClock(asyncio.get_running_loop())
            fired: list[float] = []
            for delay in (0.0, 0.01, 5.0):
                clock.schedule(clock.now() + delay, fired.append)
            clock.close()
            pending = clock.pending_timers()
            await asyncio.sleep(0.05)
            return fired, pending

        fired, pending = _run(check())
        assert fired == []
        assert pending == 0

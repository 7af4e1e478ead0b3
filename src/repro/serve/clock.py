"""WallClock: the :class:`~repro.core.clock.Clock` protocol on real time.

Time is ``time.monotonic()`` and a timer armed for an absolute instant
is a ``loop.call_later`` handle for the delay left until it, on a live
asyncio loop.  The core never asks this clock the time; the front end
reads :meth:`WallClock.now` when a datagram arrives and passes it in,
and a timer body receives its fire time.  Every method belongs to the
loop thread, which is also where the front end resolves stub queries,
so a timer body (a renewal refetch, an ``swr`` background
revalidation) runs inline on the loop, serialised with the queries by
construction.  A body that raises reaches the loop's exception handler
like any other callback.  :meth:`WallClock.close` cancels whatever is
still pending, so no timer fires after the front end stops.

This module reads the wall clock on purpose: it lives under the
``serve/`` REP001 allowlist (DESIGN.md §15).  The deterministic core
never imports it: ``tests/devtools/test_layering.py`` fails on any
import of ``repro.serve`` from ``core/`` or ``simulation/``.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.core.clock import TimerAction


class WallClock:
    """A wall-time :class:`~repro.core.clock.Clock` on one asyncio loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._tokens = itertools.count(1)
        # token -> its armed handle; absent = fired or cancelled.
        self._timers: dict[int, asyncio.TimerHandle] = {}

    now = staticmethod(time.monotonic)
    """The monotonic wall time (the front end's arrival stamp): the C
    function itself, so reading it enters no Python frame."""

    def schedule(self, when: float, action: TimerAction) -> int:
        """Run ``action(fire_time)`` at the monotonic instant ``when``;
        an instant already past fires on the next loop tick."""
        token = next(self._tokens)
        self._timers[token] = self._loop.call_later(
            max(0.0, when - time.monotonic()), self._fire, token, action
        )
        return token

    def cancel(self, token: int) -> bool:
        handle = self._timers.pop(token, None)
        if handle is None:
            return False
        handle.cancel()
        return True

    def pending_timers(self) -> int:
        """Timers armed and not yet fired or cancelled (diagnostic)."""
        return len(self._timers)

    def close(self) -> None:
        """Cancel every pending timer."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    def _fire(self, token: int, action: TimerAction) -> None:
        del self._timers[token]
        action(self.now())

"""WallClock: the :class:`~repro.core.clock.Clock` protocol on real time.

Time is ``time.monotonic()`` and timers are ``loop.call_later`` handles
on a live asyncio loop.  The resolution core is not thread-safe, so the
server hands the clock a *runner* that funnels every timer body onto
the single resolver thread — renewal refetches fire exactly where stub
queries resolve, serialised with them.

All methods are safe to call from any thread (the resolver thread arms
renewal timers while the loop thread owns the handles); arming and
cancelling marshal onto the loop via ``call_soon_threadsafe``.

This module reads the wall clock on purpose: it lives under the
``serve/`` REP001 allowlist (DESIGN.md §15), and ``repro audit``
(REP013) still rejects any call path from the deterministic core into
it.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Callable

from repro.core.clock import TimerAction

Runner = Callable[[Callable[[], None]], object]
"""Where timer bodies execute: called on the loop thread with the body,
it hands the body to whoever runs it and returns at once (the front end
passes its resolver mailbox's ``put``, so a body that raises meets the
mailbox's guard).  Defaults to inline on the loop thread."""

_GONE: object = object()


class WallClock:
    """A thread-safe wall-time :class:`~repro.core.clock.Clock`."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        runner: Runner | None = None,
    ) -> None:
        self._loop = loop
        self._runner = runner
        self._tokens = itertools.count(1)
        # token -> TimerHandle once armed; None between schedule() and
        # the loop callback that arms it.  Absent = fired or cancelled.
        self._timers: dict[int, asyncio.TimerHandle | None] = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.monotonic()

    def schedule(self, delay: float, action: TimerAction) -> int:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        token = next(self._tokens)
        with self._lock:
            self._timers[token] = None
        self._loop.call_soon_threadsafe(self._arm, token, delay, action)
        return token

    def schedule_at(self, when: float, action: TimerAction) -> int:
        return self.schedule(max(0.0, when - self.now()), action)

    def cancel(self, token: int) -> bool:
        with self._lock:
            if token not in self._timers:
                return False
            handle = self._timers.pop(token)
        if handle is not None:
            # Handle cancellation belongs to the loop thread; a timer
            # that beats this callback is caught by _fire's liveness
            # check above.
            self._loop.call_soon_threadsafe(handle.cancel)
        return True

    def pending_timers(self) -> int:
        """Timers armed or awaiting arming (diagnostic)."""
        with self._lock:
            return len(self._timers)

    # -- loop-side internals ------------------------------------------------

    def _arm(self, token: int, delay: float, action: TimerAction) -> None:
        with self._lock:
            if token not in self._timers:
                return  # cancelled before arming
            self._timers[token] = self._loop.call_later(
                delay, self._fire, token, action
            )

    def _fire(self, token: int, action: TimerAction) -> None:
        with self._lock:
            if self._timers.pop(token, _GONE) is _GONE:
                return  # cancelled in the firing race
        body: Callable[[], None] = lambda: action(self.now())
        if self._runner is None:
            body()
        else:
            self._runner(body)

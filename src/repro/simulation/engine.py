"""The discrete-event simulation engine.

The engine owns virtual time.  Trace replay drives it with
:meth:`SimulationEngine.advance_to` — between two trace queries, every
timer (renewal refetches, metric sampling) due in the interval fires in
timestamp order.  Components schedule work with :meth:`schedule` /
:meth:`schedule_in`; both return an int token that :meth:`cancel`
accepts (see :class:`~repro.simulation.events.EventQueue`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.events import EventKind
from repro.simulation.events import EventQueue

if TYPE_CHECKING:
    from repro.core.clock import VirtualClock
    from repro.obs.events import EventBus

_TIMER_FIRED = EventKind.TIMER_FIRED


class SimulationEngine:
    """Virtual clock plus event queue.

    ``observer`` is the optional observability bus (DESIGN.md §10); when
    set, each timer firing emits an ``engine.timer`` event.  The None
    checks live inside the fire loops so the empty-queue fast path in
    :meth:`advance_to` stays untouched.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._queue = EventQueue()
        self._running = False
        self.observer: "EventBus | None" = None

    def schedule(self, time: float, action: Callable[[float], None]) -> int:
        """Run ``action(fire_time)`` at absolute virtual ``time``.

        Scheduling in the past is clamped to "immediately" (fires at the
        current time on the next advance), mirroring how a real timer API
        treats overdue deadlines.  Returns a cancel token.
        """
        if time < self.now:
            time = self.now
        return self._queue.push(time, action)

    def schedule_in(self, delay: float, action: Callable[[float], None]) -> int:
        """Run ``action`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push(self.now + delay, action)

    def cancel(self, token: int) -> bool:
        """Cancel a scheduled event; True when it was still pending."""
        return self._queue.cancel(token)

    def advance_to(self, time: float) -> int:
        """Advance the clock to ``time``, firing every event due on the way.

        Events scheduled by firing events are honoured as long as they
        fall within the interval.  Returns the number of events fired.

        Raises:
            ValueError: when asked to move time backwards.
        """
        if time < self.now:
            raise ValueError(f"cannot advance backwards: {time} < {self.now}")
        queue = self._queue
        heap = queue._heap
        if not heap or heap[0][0] > time:
            # Fast path: nothing is due by ``time`` (vanilla replays
            # schedule no timers at all), so the advance is just a clock
            # assignment.  The heap's head is its earliest entry, live or
            # a cancelled tombstone, so a head past ``time`` means no
            # live event is due either; tombstones stay queued until a
            # drain reaches them.  Once per trace query, reading the
            # head here is cheaper than a `pop_due` call that finds
            # nothing.
            self.now = time
            return 0
        fired = 0
        observer = self.observer
        pop_due = queue.pop_due
        # The head test again ends the drain without the `pop_due` call
        # that would return None.
        while heap and heap[0][0] <= time:
            item = pop_due(time)
            if item is None:
                break
            fire_time, action = item
            self.now = fire_time
            if observer is not None:
                observer.emit(_TIMER_FIRED, fire_time)
            action(fire_time)
            fired += 1
        self.now = time
        return fired

    def run(self, until: float | None = None) -> int:
        """Drain the queue (optionally only up to ``until``).

        Returns the number of events fired.
        """
        if until is not None:
            return self.advance_to(until)
        fired = 0
        observer = self.observer
        pop = self._queue.pop
        while True:
            item = pop()
            if item is None:
                return fired
            fire_time, action = item
            self.now = fire_time
            if observer is not None:
                observer.emit(_TIMER_FIRED, fire_time)
            action(fire_time)
            fired += 1

    def pending_events(self) -> int:
        """Live events still queued (diagnostic)."""
        return len(self._queue)

    def clock(self) -> "VirtualClock":
        """This engine viewed through the :class:`~repro.core.clock.Clock`
        protocol (the virtual half of the virtual/wall split, DESIGN §15)."""
        from repro.core.clock import VirtualClock

        return VirtualClock(self)

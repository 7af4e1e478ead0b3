"""The discrete-event simulation engine.

The engine owns virtual time and is its own timer queue.  Trace replay
drives it with :meth:`SimulationEngine.advance_to` — between two trace
queries, every timer (renewal refetches, metric sampling) due in the
interval fires in timestamp order, and timers due at one instant fire
in the order they were scheduled.  Components schedule work with
:meth:`schedule` / :meth:`schedule_in`; both return an int token that
:meth:`cancel` accepts.

The queue is a heap of ``(time, seq)`` tuples, compared at C speed,
beside a dict of the pending actions keyed by ``seq``, which is also
the token.  Cancelling drops the dict entry; its heap tuple stays
behind as a tombstone and is discarded when a drain reaches it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

from repro.obs.events import EventKind

if TYPE_CHECKING:
    from repro.obs.events import EventBus

Action = Callable[[float], None]

_TIMER_FIRED = EventKind.TIMER_FIRED


class SimulationEngine:
    """Virtual clock plus timer queue.

    ``observer`` is the optional observability bus (DESIGN.md §10); when
    set, each timer firing emits an ``engine.timer`` event.  The None
    check lives inside the fire loop so the idle fast path in
    :meth:`advance_to` stays untouched.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._heap: list[tuple[float, int]] = []
        self._pending: dict[int, Action] = {}
        self._seq = 0
        self.observer: "EventBus | None" = None

    def schedule(self, time: float, action: Action) -> int:
        """Run ``action(fire_time)`` at absolute virtual ``time``.

        Scheduling in the past is clamped to "immediately" (fires at the
        current time on the next advance), mirroring how a real timer API
        treats overdue deadlines.  Returns a cancel token.
        """
        if time < self.now:
            time = self.now
        seq = self._seq
        self._seq = seq + 1
        self._pending[seq] = action
        heappush(self._heap, (time, seq))
        return seq

    def schedule_in(self, delay: float, action: Action) -> int:
        """Run ``action`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Pushes onto the heap itself rather than calling `schedule`:
        # the perf ledger's tracer wraps both methods, and an action
        # passed through both would be wrapped twice.
        seq = self._seq
        self._seq = seq + 1
        self._pending[seq] = action
        heappush(self._heap, (self.now + delay, seq))
        return seq

    def cancel(self, token: int) -> bool:
        """Cancel a scheduled timer; True only when it was still pending."""
        return self._pending.pop(token, None) is not None

    def advance_to(self, time: float) -> int:
        """Advance the clock to ``time``, firing every timer due on the way.

        Timers scheduled by firing timers are honoured as long as they
        fall within the interval.  Returns the number of timers fired.

        Raises:
            ValueError: when asked to move time backwards.
        """
        if time < self.now:
            raise ValueError(f"cannot advance backwards: {time} < {self.now}")
        heap = self._heap
        if not heap or heap[0][0] > time:
            # Nothing is due by ``time`` (vanilla replays schedule no
            # timers at all), so the advance is a clock assignment.  The
            # head is the earliest entry, live or tombstone, so a head
            # past ``time`` means no live timer is due either.
            self.now = time
            return 0
        fired = 0
        observer = self.observer
        pending = self._pending
        while heap and heap[0][0] <= time:
            fire_time, seq = heappop(heap)
            action = pending.pop(seq, None)
            if action is None:
                continue  # tombstone of a cancelled timer
            self.now = fire_time
            if observer is not None:
                observer.emit(_TIMER_FIRED, fire_time)
            action(fire_time)
            fired += 1
        self.now = time
        return fired

    def run(self, until: float | None = None) -> int:
        """Fire every pending timer (optionally only up to ``until``).

        Without ``until`` the clock stops at the last firing.  Returns
        the number of timers fired.
        """
        if until is not None:
            return self.advance_to(until)
        fired = 0
        heap = self._heap
        while self._pending:
            fired += self.advance_to(heap[0][0])
        return fired

    def pending_events(self) -> int:
        """Timers scheduled and neither fired nor cancelled (diagnostic)."""
        return len(self._pending)

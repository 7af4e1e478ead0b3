"""The Clock protocol: one timer API for virtual and wall time.

The resolution core (:class:`~repro.core.caching_server.CachingServer`,
:class:`~repro.core.renewal.RenewalManager`) needs three things from
time: read it, arm a timer at an absolute instant, and cancel a timer.
:class:`Clock` names that contract; the two implementations are

* :class:`VirtualClock` — wraps a
  :class:`~repro.simulation.engine.SimulationEngine`; time is the
  replay's discrete-event clock and timers are engine timers.  This is
  the deterministic path every experiment runs on.
* :class:`repro.serve.clock.WallClock` — schedules on a live asyncio
  loop; time is ``time.monotonic()``.  This is the ``repro serve``
  path, where determinism is explicitly out of scope (DESIGN.md §15).

Timers are armed at absolute instants because renewal timers fire at
expiry instants, and round-tripping an absolute time through a relative
delay (``(fire_at - now) + now``) is not float-exact — the
byte-identical event-log guarantee would not survive it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.simulation.engine import SimulationEngine

TimerAction = Callable[[float], None]
"""Timer callbacks receive the clock's time at the moment they fire."""


@runtime_checkable
class Clock(Protocol):
    """What the resolution core requires of a time source."""

    def now(self) -> float:
        """The current time, in seconds (virtual or monotonic wall)."""
        ...

    def schedule_at(self, when: float, action: TimerAction) -> int:
        """Run ``action(fire_time)`` at the absolute instant ``when``.

        Instants in the past fire as soon as the clock next advances
        (virtual) or on the next loop tick (wall).  Returns a cancel
        token.
        """
        ...

    def cancel(self, token: int) -> bool:
        """Cancel a pending timer; True when it had not yet fired."""
        ...


class VirtualClock:
    """A :class:`Clock` over a :class:`SimulationEngine`'s timers.

    Deliberately a thin veneer: tokens are the engine's own timer
    tokens, and ``now`` reads the engine attribute, so wrapping an
    engine mid-replay observes exactly the same timeline.
    ``schedule_at`` and ``cancel`` *are* the engine's ``schedule`` and
    ``cancel``, bound when the clock is made: a renewal timer is armed
    and cancelled through them on every refetch, and the binding saves
    a forwarding call on each.
    """

    __slots__ = ("engine", "schedule_at", "cancel")

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        self.schedule_at = engine.schedule
        self.cancel = engine.cancel

    def now(self) -> float:
        return self.engine.now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.engine.now!r})"


def as_clock(source: "Clock | SimulationEngine") -> Clock:
    """Normalise ``source`` to a :class:`Clock`.

    Accepts either a ready-made clock or a bare
    :class:`SimulationEngine` (wrapped in a :class:`VirtualClock`): a
    replay hands its engine straight to the resolution core.
    """
    from repro.simulation.engine import SimulationEngine

    if isinstance(source, SimulationEngine):
        return VirtualClock(source)
    return source

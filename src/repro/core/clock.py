"""The Clock protocol: one timer API for virtual and wall time.

The resolution core (:class:`~repro.core.caching_server.CachingServer`,
:class:`~repro.core.renewal.RenewalManager`) never asks a clock the
time: every entry point takes ``now`` from its caller, and a timer body
receives its fire time.  What the core needs of a clock is to arm a
timer at an absolute instant and to cancel one.  :class:`Clock` names
that contract; the two implementations are

* :class:`repro.simulation.engine.SimulationEngine` itself — time is
  the replay's discrete-event clock.  A replay hands its engine to the
  core, which calls the engine's own ``schedule`` and ``cancel``.  This
  is the deterministic path every experiment runs on.
* :class:`repro.serve.clock.WallClock` — schedules on a live asyncio
  loop; time is ``time.monotonic()``.  This is the ``repro serve``
  path, where determinism is explicitly out of scope (DESIGN.md §15).

Timers are armed at absolute instants because renewal timers fire at
expiry instants, and round-tripping an absolute time through a relative
delay (``(fire_at - now) + now``) is not float-exact — the
byte-identical event-log guarantee would not survive it.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

TimerAction = Callable[[float], None]
"""Timer callbacks receive the clock's time at the moment they fire."""


@runtime_checkable
class Clock(Protocol):
    """What the resolution core requires of a timer source.

    Parameters are positional-only: the core passes them by position,
    so an implementation may name them as it likes (the engine's is
    ``time``).
    """

    def schedule(self, when: float, action: TimerAction, /) -> int:
        """Run ``action(fire_time)`` at the absolute instant ``when``.

        Instants in the past fire as soon as the clock next advances
        (virtual) or on the next loop tick (wall).  Returns a cancel
        token.
        """
        ...

    def cancel(self, token: int, /) -> bool:
        """Cancel a pending timer; True when it had not yet fired."""
        ...

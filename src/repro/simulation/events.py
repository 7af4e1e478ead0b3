"""A cancellable priority queue of timed events, flattened for speed.

The heap holds plain ``(time, seq, slot)`` tuples — compared at C speed,
with no per-event Python object and no ``__lt__`` dispatch — while the
actions live in preallocated parallel arrays indexed by ``slot``.  A
scheduled event is identified externally by an int *token* packing the
slot with a generation sequence number; cancellation just invalidates
the slot's generation (O(1)) and the stale heap tuple is discarded
lazily when it surfaces.  Freed slots are recycled through a free list,
so steady-state operation (the renewal timers' arm/cancel/rearm churn)
allocates only heap tuples.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.dns.errors import InvariantError

Action = Callable[[float], None]

#: Bits reserved for the slot index inside a token; 2**32 concurrent
#: slots is far beyond any simulated timer population.
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1

_INFINITY = float("inf")


class EventQueue:
    """Min-heap of ``(time, seq, slot)``, ordered by (time, insertion seq).

    ``push`` returns an int token; pass it to :meth:`cancel` to prevent
    delivery.  Delivery order is strictly (time, then insertion order),
    exactly as the previous object-per-event implementation.
    """

    __slots__ = ("_heap", "_actions", "_gens", "_free", "_next_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []
        # Parallel slot arrays: the action to fire and the generation
        # (seq) it was scheduled under.  A generation of -1 marks a free
        # slot, so a stale heap tuple can never match it.
        self._actions: list[Action | None] = []
        self._gens: list[int] = []
        self._free: list[int] = []
        self._next_seq = 0
        self._live = 0

    def push(self, time: float, action: Action) -> int:
        """Schedule ``action`` to run at ``time``; returns a cancel token."""
        seq = self._next_seq
        self._next_seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._actions[slot] = action
            self._gens[slot] = seq
        else:
            slot = len(self._actions)
            self._actions.append(action)
            self._gens.append(seq)
        heappush(self._heap, (time, seq, slot))
        self._live += 1
        return (seq << _SLOT_BITS) | slot

    def cancel(self, token: int) -> bool:
        """Prevent the event behind ``token`` from firing.

        Safe to call repeatedly and after delivery; returns True only
        when a pending event was actually cancelled.
        """
        slot = token & _SLOT_MASK
        seq = token >> _SLOT_BITS
        gens = self._gens
        if slot >= len(gens) or gens[slot] != seq:
            return False
        gens[slot] = -1
        self._actions[slot] = None
        self._free.append(slot)
        self._live -= 1
        return True

    def pop_due(self, limit: float) -> tuple[float, Action] | None:
        """Remove and return the next live event at or before ``limit``.

        Returns ``(time, action)``, or None when the next live event is
        later than ``limit`` (or the queue is drained).  This is the
        engine's batch-drain primitive: ``advance_to`` calls it in a
        tight loop instead of separate peek/pop rounds.
        """
        heap = self._heap
        gens = self._gens
        actions = self._actions
        while heap:
            head = heap[0]
            time = head[0]
            slot = head[2]
            if gens[slot] != head[1]:
                heappop(heap)  # stale tombstone of a cancelled event
                continue
            if time > limit:
                return None
            heappop(heap)
            action = actions[slot]
            gens[slot] = -1
            actions[slot] = None
            self._free.append(slot)
            self._live -= 1
            if action is None:  # pragma: no cover - generation match forbids it
                raise InvariantError(f"live slot {slot} holds no action")
            return (time, action)
        return None

    def pop(self) -> tuple[float, Action] | None:
        """Remove and return the next live event, or None when empty."""
        return self.pop_due(_INFINITY)

    def is_empty(self) -> bool:
        """True when no entries remain, cancelled or not — O(1).

        A queue holding only cancelled tombstones reports non-empty; the
        caller's drain loop discards those.  ``SimulationEngine.advance_to``
        reads ``_heap`` directly once per trace query: empty, or a head
        later than the advance, means nothing is due.
        """
        return not self._heap

    def peek_time(self) -> float | None:
        """The time of the next live event, or None when empty."""
        heap = self._heap
        gens = self._gens
        while heap and gens[heap[0][2]] != heap[0][1]:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def __len__(self) -> int:
        """Number of live (non-cancelled) events — O(1)."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

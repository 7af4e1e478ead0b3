"""A speed gauge for a box whose speed will not hold still.

This benchmark's home is a two-core VM on a shared host.  The same
replay takes 2.9 s one minute and 6 s the next (CPU time, not steal: the
cores themselves run slower), in phases that last from a second to
several minutes, so neither medians over a run nor minima over reps give
a number that repeats: runs of one commit spread 12–50 % on every timing
metric, wider than any bound worth setting.

What does repeat is the *ratio* of the work to a small fixed kernel run
right beside it.  The box slows down in two ways that come and go on
their own, so :class:`SpeedGauge` runs two kernels: the same loop (dict
look-ups, attribute reads, small allocations, what the resolver is made
of) over two tables.

* The **core** kernel walks 64 cells that never leave the L1 cache.  It
  slows when the core itself does (a busy sibling thread, a lower clock):
  up to 2× within a second, and everything on the core slows with it.
* The **memory** kernel walks 1500 of 50 000 cells (8 MB), a fresh 1500 on
  every sample, so each cell comes from the last-level cache or from
  DRAM.  It slows when a neighbour on the host floods the shared cache:
  up to 2× for minutes at a time, while the core kernel reads 1.1–1.2×
  and a replay, which finds most of its data in its own L2, 1.2–1.4×.

One kernel cannot follow both.  The first version of this file had only
the memory kernel (always the same 1500 cells): in a cache-flood phase it
over-corrected, in a slow-core phase it under-corrected, and 66
back-to-back runs of the cold replay spread 9 % raw and 16 % scaled.  So
the slow-down charged to a piece of work is a blend,
``(1 - MEMORY_SHARE) * core + MEMORY_SHARE * memory``, with the share at
which the scaled time of every workload stayed level through the quiet,
flooded and slow-core phases of a calibration campaign (README.md,
"Calibrating the memory share").  There, runs of the hot, cold and
renewal replays spread 71 / 103 / 14 % raw (5th to 95th percentile) and
5 / 8 / 4 % scaled.

The numbers are therefore times *at reference speed*: what the work
would take on a box that runs both kernels in their reference times,
which this box does in its calm phases.  To first order they carry over
to another machine.  The kernels never touch repository code; a change
to ``src/`` cannot move them.
"""

from __future__ import annotations

import time

CORE_REFERENCE_NS = 380_000
MEMORY_REFERENCE_NS = 900_000
"""What the two kernels take on this box in a calm phase: the lowest tenth
of a campaign's samples, taken between the slices of a replay."""

MEMORY_SHARE = 0.3
"""How much of the memory kernel's slow-down the measured work feels."""

_MEMORY_CELLS = 50_000
_MEMORY_STEPS = 1_500
_CORE_CELLS = 64
_CORE_STEPS = 2_000

Sample = tuple[int, int]
"""(core kernel ns, memory kernel ns) of one :meth:`SpeedGauge.sample`."""


class _Cell:
    __slots__ = ("key", "total")

    def __init__(self, key: int, total: float) -> None:
        self.key = key
        self.total = total


def _walk(table: dict[int, _Cell], keys: list[int]) -> float:
    """The kernel: look each cell up, read it, replace it with a copy."""
    total = 0.0
    for key in keys:
        cell = table[key]
        total += cell.total
        table[key] = _Cell(cell.key, cell.total)
    return total


class SpeedGauge:
    """Runs the two reference kernels on demand and turns their times into a speed."""

    def __init__(self) -> None:
        self._core = {key: _Cell(key, float(key)) for key in range(_CORE_CELLS)}
        self._core_keys = [(step * 7) % _CORE_CELLS for step in range(_CORE_STEPS)]
        self._memory = {key: _Cell(key, float(key)) for key in range(_MEMORY_CELLS)}
        order = [(step * 7919) % _MEMORY_CELLS for step in range(_MEMORY_CELLS)]
        self._memory_keys = [
            order[begin:begin + _MEMORY_STEPS]
            for begin in range(0, _MEMORY_CELLS - _MEMORY_STEPS + 1, _MEMORY_STEPS)
        ]
        self._turn = 0
        self.sample()  # first touch of every bytecode, outside any measurement

    def sample(self) -> Sample:
        """One run of each kernel."""
        clock = time.perf_counter_ns
        keys = self._memory_keys[self._turn]
        self._turn = (self._turn + 1) % len(self._memory_keys)
        begin = clock()
        _walk(self._core, self._core_keys)
        middle = clock()
        _walk(self._memory, keys)
        return middle - begin, clock() - middle


def speed(*samples: Sample) -> float:
    """Box speed over the given samples: 1.0 at reference, less when slow."""
    core = sum(sample[0] for sample in samples) / (len(samples) * CORE_REFERENCE_NS)
    memory = sum(sample[1] for sample in samples) / (len(samples) * MEMORY_REFERENCE_NS)
    return 1.0 / ((1.0 - MEMORY_SHARE) * core + MEMORY_SHARE * memory)

"""Pausing the cyclic garbage collector around bulk construction.

Building a hierarchy allocates long-lived, acyclic objects by the
hundred thousand in one go: a SMALL world is 106k GC-tracked objects, a
PAPER one 4.15M.  CPython's collector counts allocations, so it
interrupts such a build every 700 objects and, every hundred or so
interruptions, re-walks everything built so far — looking for cycles
that a builder of frozen records cannot make.  On the 624k-query
benchmark trace, when it was stored as rows, that was 0.7 of 1.1
construction seconds; a trace is columns now and needs no pause.  The
one pass the pause runs when it ends still walks the whole world once:
4–5 ms of a 0.08 s SMALL build, 0.96 s of a 4.0 s PAPER one (2-core
Xeon).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_collector() -> Iterator[None]:
    """Run the block with the cyclic collector off; leave it as it was found.

    When the collector was on, it is switched back on at exit — also when
    the block raises — and one pass over the young generations runs *here*:
    it moves what the block built to the old generation, where the
    per-allocation passes would have left it.  Without that pass the
    caller's next few hundred allocations would pay for it, and a timer
    around the call would under-read.  When the caller had the collector
    off, it stays off and nothing is collected.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(1)

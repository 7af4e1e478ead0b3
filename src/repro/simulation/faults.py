"""Deterministic fault injection: partial attacks and packet loss.

The paper's evaluation models a DDoS as total unavailability of the
targeted servers; the interesting regime studied by the follow-on
literature (Moura et al., "When the Dike Breaks", IMC 2018) is *partial*
failure — attacks that drop a fraction of queries, and background
packet loss.  This module is the declarative fault model the
:class:`~repro.simulation.network.Network` consults before handing a
query to a server.

Two shapes, mirroring the observability subsystem:

* :class:`FaultSpec` — a frozen, picklable description that rides inside
  :class:`~repro.experiments.parallel.ReplaySpec` exactly like
  ``ObservationSpec``, so worker processes rebuild their own injectors.
* :class:`FaultInjector` — the live per-replay counterpart holding the
  per-address query ordinals.

Determinism
-----------

No ``random.Random`` stream is involved: every stochastic choice is a
pure function of ``(seed, stream, address, query ordinal)`` hashed
through BLAKE2b (:func:`unit_hash`).  The nth query to a given address
therefore sees the same coin flips regardless of how queries to *other*
addresses interleave, which is what keeps event logs byte-identical at
any worker count (``repro check`` REP001/REP002 stay clean because no
wall clock and no hidden RNG state exist here).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_TWO_64 = float(2**64)


def unit_hash(seed: int, stream: str, address: str, ordinal: int) -> float:
    """A uniform draw in [0, 1) keyed on (seed, stream, address, ordinal).

    Pure and platform-stable (BLAKE2b over a canonical byte string), so
    replays are byte-identical across processes, hosts and Python
    versions — the property a shared ``random.Random`` could not give
    once queries interleave differently across worker counts.
    """
    key = f"{seed}|{stream}|{address}|{ordinal}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / _TWO_64


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model for one replay (frozen, picklable).

    All-default instances describe a fault-free network; the harness
    still builds an injector from them when an attack window carries a
    partial intensity, because the intensity roll needs the stream-split
    draws.
    """

    background_loss: float = 0.0
    """Probability in [0, 1] that any CS→AN query is silently dropped,
    independent of attacks (ambient packet loss)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.background_loss <= 1.0:
            raise ValueError(
                f"background_loss must be in [0, 1], got {self.background_loss}"
            )

    def build(self, seed: int = 0) -> "FaultInjector":
        """The live injector for one replay (mirrors ObservationSpec.build)."""
        return FaultInjector(self, seed=seed)


class FaultInjector:
    """Live fault state for one replay: spec + per-address query ordinals.

    One injector belongs to exactly one replay (the harness builds it
    next to the :class:`~repro.simulation.network.Network`), so the
    ordinal counters reset with every run and the draw sequence is a
    pure function of the replay spec.
    """

    __slots__ = ("spec", "seed", "_ordinals")

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self._ordinals: dict[str, int] = {}

    def next_ordinal(self, address: str) -> int:
        """This query's per-address ordinal (the RNG stream position)."""
        ordinal = self._ordinals.get(address, 0)
        self._ordinals[address] = ordinal + 1
        return ordinal

    def unit(self, stream: str, address: str, ordinal: int) -> float:
        """The stream-split uniform draw for one query attempt."""
        return unit_hash(self.seed, stream, address, ordinal)

    def attack_drops(self, address: str, ordinal: int, intensity: float) -> bool:
        """Whether a partial attack of ``intensity`` swallows this query."""
        if intensity <= 0.0:
            return False
        if intensity >= 1.0:
            return True
        return self.unit("attack", address, ordinal) < intensity

    def loss_drops(self, address: str, ordinal: int) -> bool:
        """Whether background packet loss swallows this query."""
        loss = self.spec.background_loss
        if loss <= 0.0:
            return False
        return self.unit("loss", address, ordinal) < loss

"""Adversary 2.0: NXNS amplification and cache poisoning.

The paper models a DDoS as brute-force unavailability of authoritative
servers; this module adds the two adversarial workloads the follow-on
literature studies *against the resolver itself*:

* **NXNS amplification** (Afek et al., USENIX Security 2020) — queries
  into an attacker-controlled zone whose delegations name many
  unresolvable out-of-bailiwick servers, so every attack query fans out
  into a storm of failing CS-side sub-resolutions against innocent
  zones.  The zone itself is grafted by
  :func:`repro.hierarchy.builder.graft_attacker_zone`.
* **Cache poisoning** — an off-path forger racing legitimate answers at
  the network layer.  A won race substitutes a forged authoritative
  answer; whether it *sticks* is decided downstream by the ordinary RFC
  2181 ranking in the cache, which is exactly the point: defenses are
  measured by poison dwell time, not by fiat.

Mirroring :mod:`repro.simulation.faults`, each family splits into a
frozen picklable spec riding inside
:class:`~repro.experiments.parallel.ReplaySpec` and a live per-replay
counterpart.  Every stochastic choice is a pure BLAKE2b draw keyed on
``(seed, stream, address, ordinal)`` with the adversary's *own*
per-address ordinals, so draws are byte-identical at any worker count
and independent of whether a :class:`~repro.simulation.faults
.FaultInjector` is present.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.faults import unit_hash

DAY = 86400.0
HOUR = 3600.0
MINUTE = 60.0


@dataclass(frozen=True)
class NxnsAttackSpec:
    """One NXNS amplification campaign (frozen, picklable)."""

    start: float = 6 * DAY
    """Virtual time the attack query stream begins."""

    duration: float = 6 * HOUR
    """Length of the attack window in seconds."""

    queries_per_minute: float = 60.0
    """Attack queries injected at the resolver's stub interface."""

    fan_out: int = 10
    """Unresolvable NS names per attacker delegation (the amplifier)."""

    delegations: int = 50
    """Delegated children in the attacker zone the queries cycle over."""

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.queries_per_minute <= 0.0:
            raise ValueError(
                f"queries_per_minute must be positive, "
                f"got {self.queries_per_minute}"
            )
        if self.fan_out < 1 or self.delegations < 1:
            raise ValueError("fan_out and delegations must be positive")

    def query_stream(self, apex: Name) -> tuple[tuple[float, Name], ...]:
        """The (time, qname) attack arrivals against a grafted ``apex``.

        Each qname is fresh (cache-busting ``q<i>`` label) under one of
        the attacker's delegated children, cycled round-robin so every
        amplifying NS set is exercised.
        """
        interval = MINUTE / self.queries_per_minute
        count = int(self.duration / interval)
        return tuple(
            (
                self.start + index * interval,
                apex.child(f"s{index % self.delegations}").child(f"q{index}"),
            )
            for index in range(count)
        )


@dataclass(frozen=True)
class PoisonAttackSpec:
    """An off-path forger racing CS→AN answers (frozen, picklable)."""

    rate: float = 0.05
    """Probability an answered A-query exchange is raced at all."""

    success: float = 0.5
    """Probability a raced exchange is *won* before entropy defenses;
    each bit of ``source_entropy_bits`` on the resolver halves it."""

    ttl: float = 3600.0
    """TTL the forged records advertise (what the attacker wants)."""

    address: str = "198.51.100.66"
    """Where forged answers point (TEST-NET-2: recognisably bogus)."""

    start: float = 0.0
    """Virtual time the forger switches on."""

    duration: "float | None" = None
    """Attack window length; None means until the replay ends."""

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if not 0.0 < self.success <= 1.0:
            raise ValueError(f"success must be in (0, 1], got {self.success}")
        if self.ttl <= 0.0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative adversary model for one replay (frozen, picklable).

    Rides inside :class:`~repro.experiments.parallel.ReplaySpec` exactly
    like ``FaultSpec``; ``run_replay`` grafts the NXNS zone and builds
    the live :class:`Poisoner` from it in the worker, so nothing
    unpicklable crosses the process boundary.
    """

    nxns: "NxnsAttackSpec | None" = None
    poison: "PoisonAttackSpec | None" = None

    @property
    def inert(self) -> bool:
        """Whether this spec mounts no attack at all."""
        return self.nxns is None and self.poison is None


class Poisoner:
    """Live forger state: per-address ordinals + memoized forgeries.

    One poisoner belongs to exactly one replay.  The ordinal counters
    are the poisoner's own (never shared with the fault injector), so
    the draw sequence is identical whether or not faults are configured.
    ``entropy_bits`` is the *resolver's* source-port/0x20 entropy
    defense (:attr:`~repro.core.config.ResilienceConfig
    .source_entropy_bits`); it belongs to the defender but is held here
    because it scales the forger's race odds.
    """

    __slots__ = ("spec", "seed", "entropy_bits", "attempts", "wins",
                 "_ordinals", "_forged")

    def __init__(
        self, spec: PoisonAttackSpec, seed: int = 0, entropy_bits: int = 0
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.entropy_bits = entropy_bits
        self.attempts = 0
        self.wins = 0
        self._ordinals: dict[str, int] = {}
        # Forged responses memoized per question so repeated wins reuse
        # one Message object (and its ingest-plan memo), like the
        # authoritative response cache does for honest answers.
        self._forged: dict[tuple[Name, RRType], Message] = {}

    def race(
        self, address: str, question: Question, now: float
    ) -> Message | None:
        """The forged message substituted for this exchange, if the race
        is attempted and won; None otherwise."""
        spec = self.spec
        if question.rrtype != RRType.A:
            return None
        if now < spec.start:
            return None
        if spec.duration is not None and now >= spec.start + spec.duration:
            return None
        ordinal = self._ordinals.get(address, 0)
        self._ordinals[address] = ordinal + 1
        if unit_hash(self.seed, "poison-attempt", address, ordinal) >= spec.rate:
            return None
        self.attempts += 1
        odds = spec.success * 2.0 ** -self.entropy_bits
        if unit_hash(self.seed, "poison-race", address, ordinal) >= odds:
            return None
        self.wins += 1
        return self._forge(question)

    def _forge(self, question: Question) -> Message:
        key = (question.name, question.rrtype)
        message = self._forged.get(key)
        if message is None:
            rrset = RRset.from_records([
                ResourceRecord(
                    question.name, RRType.A, self.spec.ttl, self.spec.address
                )
            ])
            message = Message(
                question=question,
                authoritative=True,
                answer=(rrset,),
                message_id=0,
                forged=True,
            )
            self._forged[key] = message
        return message


"""Message delivery between the caching server and authoritative servers.

The network is deliberately simple — the paper's metrics depend on *which*
servers are reachable, not on packet dynamics — but it models the two
costs that shape resolver behaviour: per-hop round-trip latency and the
timeout paid for every query to a dead server.

An optional :class:`~repro.simulation.faults.FaultInjector` extends the
binary blocked/reachable model with the partial-failure regime: attack
windows with fractional intensity and background packet loss.  Without
an injector the query path is exactly the pre-fault code — the disabled
layer costs nothing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.dns.errors import LameDelegationError
from repro.dns.message import Message, Question
from repro.hierarchy.tree import ZoneTree
from repro.simulation.adversary import Poisoner
from repro.simulation.attack import AttackSchedule
from repro.simulation.faults import FaultInjector


@dataclass(frozen=True)
class LatencyModel:
    """Latency accounting for resolution attempts.

    ``rtt`` is charged per answered query, ``timeout`` per query that a
    blocked/dead server swallows.  These feed the response-time metric
    only; virtual trace time does not advance with them (matching the
    paper's simulator, which measures availability, not latency).

    ``rtt_spread`` adds a deterministic per-address factor in
    ``[1-spread, 1+spread]`` so servers are distinguishable — what makes
    RTT-based server selection worth modelling.
    """

    rtt: float = 0.04
    timeout: float = 2.0
    rtt_spread: float = 0.5
    # Per-address memo: rtt_for is pure, and the crc32-based spread is
    # recomputed for the same handful of addresses on every query.
    _memo: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rtt_for(self, address: str) -> float:
        """The stable round-trip time to ``address``."""
        if self.rtt_spread <= 0.0:
            return self.rtt
        value = self._memo.get(address)
        if value is None:
            factor = (zlib.crc32(address.encode("ascii")) % 1000) / 1000.0
            value = self.rtt * (1.0 + self.rtt_spread * (2.0 * factor - 1.0))
            self._memo[address] = value
        return value


class QueryResult(NamedTuple):
    """Outcome of one CS -> AN query attempt.

    A ``NamedTuple`` (one is built per upstream exchange; a tuple is
    filled in one C call, a frozen dataclass field by field).
    ``dropped_by`` names the fault-layer mechanism that swallowed the
    query (``"attack"`` or ``"loss"``); it stays None on the
    fault-free path so pre-fault event streams are unchanged.
    ``timed_out`` distinguishes silent drops (worth retransmitting) from
    fast negative answers like lame delegations (not worth it).
    """

    message: Message | None
    latency: float
    dropped_by: str | None = None
    timed_out: bool = False

    @property
    def answered(self) -> bool:
        return self.message is not None


_tuple_new = tuple.__new__
"""Fills a :class:`QueryResult` in one C call, without the Python
``__new__`` frame a class call adds: one is built per exchange."""


class Network:
    """Routes questions to authoritative servers, honouring attacks.

    The caching server resolves through it, in a replay and under
    ``repro serve`` alike, and reaches it only through ``query`` /
    ``query_timeout``.
    """

    def __init__(
        self,
        tree: ZoneTree,
        attacks: AttackSchedule | None = None,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        poisoner: Poisoner | None = None,
    ) -> None:
        self._tree = tree
        self._attacks = attacks
        self._faults = faults
        self._poisoner = poisoner
        self.latency = latency or LatencyModel()

    @property
    def query_timeout(self) -> float:
        """Seconds one unanswered query attempt costs the caching server."""
        return self.latency.timeout

    def query(self, address: str, question: Question, now: float) -> QueryResult:
        """Send ``question`` to the server at ``address``.

        Returns an unanswered result (``message is None``) when the
        address is blocked by an attack, dropped by the fault model,
        unknown, or lame for the question; the caller pays the timeout
        either way.
        """
        faults = self._faults
        if faults is None:
            attacks = self._attacks
            if attacks is not None and attacks.is_blocked(address, now):
                return _tuple_new(
                    QueryResult, (None, self.latency.timeout, None, True)
                )
        else:
            ordinal = faults.next_ordinal(address)
            dropped = self._fault_verdict(faults, address, ordinal, now)
            if dropped is not None:
                return QueryResult(
                    None, self.latency.timeout, dropped_by=dropped,
                    timed_out=True,
                )
        server = self._tree.server_by_address(address)
        if server is None:
            return QueryResult(None, self.latency.timeout, timed_out=True)
        try:
            message = server.respond(question)
        except LameDelegationError:
            # A real lame server answers REFUSED or garbage; either way
            # the resolver moves to the next server, same as a timeout
            # (but much faster — and not worth a retransmit).
            return QueryResult(None, self.latency.rtt_for(address))
        if self._poisoner is not None:
            # An off-path forger races the honest answer; a won race
            # substitutes the forgery wholesale (the honest packet
            # arrives second and is discarded, as in a real race).
            forged = self._poisoner.race(address, question, now)
            if forged is not None:
                message = forged
        return _tuple_new(
            QueryResult, (message, self.latency.rtt_for(address), None, False)
        )

    def _fault_verdict(
        self, faults: FaultInjector, address: str, ordinal: int, now: float
    ) -> str | None:
        """Which fault mechanism (if any) swallows this query attempt."""
        if self._attacks is not None:
            intensity = self._attacks.block_intensity(address, now)
            if faults.attack_drops(address, ordinal, intensity):
                return "attack"
        if faults.loss_drops(address, ordinal):
            return "loss"
        return None

"""The Upstream protocol: how the resolution core reaches authorities.

:class:`~repro.core.caching_server.CachingServer` talks to
authoritative servers through exactly two members: ``query`` (send one
question to one address, get a :class:`QueryResult`) and
``query_timeout`` (the per-attempt timeout its retry policy charges).
:class:`Upstream` names that contract; the simulated
:class:`~repro.simulation.network.Network` satisfies it, in a replay
and under ``repro serve`` alike, and any other transport that keeps
those two members can stand in for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.dns.message import Question
    from repro.simulation.network import QueryResult


@runtime_checkable
class Upstream(Protocol):
    """What the caching server requires of a transport."""

    @property
    def query_timeout(self) -> float:
        """Seconds one unanswered query attempt costs before giving up."""
        ...

    def query(
        self, address: str, question: "Question", now: float
    ) -> "QueryResult":
        """Send ``question`` to the server at ``address``.

        Returns an unanswered result (``message is None``) on timeout,
        drop or lame delegation; never raises for ordinary delivery
        failures.
        """
        ...

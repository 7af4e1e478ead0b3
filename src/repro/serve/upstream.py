"""UdpUpstream: the :class:`~repro.core.transport.Upstream` protocol
over a real UDP socket.

This is the transport half of running the resolver "for real": where a
replay's :class:`~repro.simulation.network.Network` looks up the
simulated :class:`~repro.hierarchy.tree.ZoneTree`, this sends the
question as an RFC 1035 packet to the named address and decodes the
answer.  The caching server cannot tell the difference — both expose
``query`` and ``query_timeout`` and return
:class:`~repro.simulation.network.QueryResult` values.

Blocking by design: the resolution core is synchronous and
single-threaded, and a synchronous send/receive keeps it so (its latency
shows up where the metrics expect it).  The serve front end does not use
it: it resolves on its loop thread against the in-process simulated
network, where a blocking socket would stall every other client.
"""

from __future__ import annotations

import itertools
import socket
import time

from repro.dns.message import Question
from repro.serve.wire import WireFormatError, decode_message, encode_query
from repro.simulation.network import QueryResult

#: Queries to servers that answer garbage count as lame, same as the
#: simulated network's LameDelegationError arm.
_DEFAULT_PORT = 53


class UdpUpstream:
    """Send questions to authoritative addresses over real UDP."""

    def __init__(self, timeout: float = 2.0, payload_max: int = 4096) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._timeout = timeout
        self._payload_max = payload_max
        self._ids = itertools.count(1)
        self.queries_sent = 0
        self.queries_lost = 0

    @property
    def query_timeout(self) -> float:
        return self._timeout

    def query(self, address: str, question: Question, now: float) -> QueryResult:
        """One blocking query attempt to ``address`` (``ip`` or ``ip:port``).

        Mirrors the simulated network's contract: timeouts, unreachable
        hosts and undecodable answers come back as unanswered
        :class:`QueryResult` values, never exceptions.
        """
        host, _, port_text = address.partition(":")
        port = int(port_text) if port_text else _DEFAULT_PORT
        message_id = next(self._ids) & 0xFFFF
        packet = encode_query(question, message_id)
        self.queries_sent += 1
        started = time.monotonic()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(self._timeout)
                sock.sendto(packet, (host, port))
                while True:
                    data, _ = sock.recvfrom(self._payload_max)
                    decoded = decode_message(data)
                    if decoded.message.message_id == message_id:
                        break
        except (TimeoutError, socket.timeout):
            self.queries_lost += 1
            return QueryResult(None, self._timeout, timed_out=True)
        except (OSError, WireFormatError):
            # Unreachable, refused, or garbage: like a lame server — a
            # fast negative, not worth a retransmit.
            self.queries_lost += 1
            return QueryResult(None, time.monotonic() - started)
        return QueryResult(decoded.message, time.monotonic() - started)

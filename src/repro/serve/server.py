"""The asyncio DNS front end: UDP + TCP listeners over a CachingServer.

Threading model: there is one thread, the asyncio loop's.  It owns the
sockets, the wire codec, the
:class:`~repro.core.caching_server.CachingServer` and its
:class:`~repro.serve.clock.WallClock` timers.  Datagrams are answered in
batches: each time the UDP socket is readable, the reader callback
answers every datagram already queued, up to :data:`UDP_BATCH` of them,
each with ``recvfrom_into``, decode, ``handle_stub_query``,
:func:`reply_for`, encode, ``sendto``.  The core resolves against the
in-process simulated network, so resolution never waits on I/O and one
resolution runs at a time; overload waits, and past its size drops, in
the kernel's socket buffer.  Renewal and ``swr`` timer bodies and the
TCP connections run on the same loop, between batches.

The front end holds no answers and no map keyed by question or client:
what may be answered, fresh or stale, is decided by the core's one cache
under the selected scheme (run ``--scheme swr:30`` for
stale-while-revalidate).  Layered on top:

* **Typed errors** — a malformed query gets FORMERR when it carries an
  id and silence when it does not; a resolution that raises, or an
  answer the codec cannot encode, answers SERVFAIL and is reported to
  the loop's exception handler.
* **Truncation + TCP fallback** — UDP responses above RFC 1035's
  512-octet payload ceiling (:data:`~repro.serve.wire.UDP_PAYLOAD_MAX`)
  degrade to TC-marked header+question; the TCP listener answers the
  retry up to the 65,535 octets its length prefix can frame.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any, NamedTuple, Sequence

from repro.core.caching_server import CachingServer, Resolution, ResolutionOutcome
from repro.core.schemes import parse_scheme
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.records import RRset
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import make_scenario
from repro.obs.events import EventBus
from repro.obs.sinks import render_prometheus
from repro.serve.clock import WallClock
from repro.serve.metrics import ServeMetrics, start_metrics_server
from repro.serve.spec import ServeSpec
from repro.serve.wire import (
    FLAG_QR,
    FLAG_TC,
    HEADER,
    UDP_PAYLOAD_MAX,
    DecodedQuery,
    WireFormatError,
    decode_query,
    encode_response,
    frame_tcp,
)
from repro.simulation.network import Network

_TCP_LENGTH = struct.Struct("!H")

_UDP_BUFFER = 65_535
"""The receive buffer: no UDP datagram is larger."""

_TCP_PAYLOAD_MAX = 0xFFFF
"""The largest reply a TCP length prefix can frame; a larger one
degrades to TC like an oversized datagram, so framing never fails."""

UDP_BATCH = 16
"""Datagrams answered per wake-up of the UDP reader at most; then timers
and TCP get the loop until the next one."""


class Reply(NamedTuple):
    """What a resolution puts on the wire: the rcode and the answer RRset."""

    rcode: Rcode
    answer: RRset | None = None


_SERVFAIL = Reply(Rcode.SERVFAIL)
_NXDOMAIN = Reply(Rcode.NXDOMAIN)
_NODATA = Reply(Rcode.NOERROR)
_NXDOMAIN_OUTCOME = ResolutionOutcome.NXDOMAIN
_NOERROR = Rcode.NOERROR
_tuple_new = tuple.__new__


def reply_for(resolution: Resolution) -> Reply:
    """The reply a resolution gets, the same over UDP and TCP.

    A failed outcome is SERVFAIL and NXDOMAIN is NXDOMAIN; every other
    outcome is NOERROR with the resolution's answer, which NODATA leaves
    empty.
    """
    outcome = resolution.outcome
    if outcome.failed:
        return _SERVFAIL
    if outcome is _NXDOMAIN_OUTCOME:
        return _NXDOMAIN
    answer = resolution.answer
    if answer is None:
        return _NODATA
    return _tuple_new(Reply, (_NOERROR, answer))


class DnsFrontEnd:
    """One bound front end: sockets, metrics, and the resolver core."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
        self._built = scenario.built
        self._config = parse_scheme(spec.scheme)
        self.metrics = ServeMetrics()
        self.bus = EventBus()
        self.clock: WallClock | None = None
        self.server: CachingServer | None = None
        self._udp_socket: socket.socket | None = None
        # One receive buffer for the front end's life.  asyncio's datagram
        # transport instead asks for a fresh 256 KiB buffer per datagram,
        # and whether the allocator reuses a chunk for it or maps fresh
        # pages each time depended on the heap's state at start-up: in
        # the second case every datagram cost two minor page faults.
        self._udp_buffer = bytearray(_UDP_BUFFER)
        self._udp_view = memoryview(self._udp_buffer)
        self._tcp_server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self.udp_address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Build the resolver core and bind UDP/TCP/metrics listeners."""
        loop = asyncio.get_running_loop()
        self.clock = WallClock(loop)
        self.server = CachingServer(
            root_hints=self._built.tree.root_hints(),
            # The simulated zone tree answers in-process, which is why
            # resolving inline on the loop thread never blocks it.
            network=Network(self._built.tree),
            clock=self.clock,
            config=self._config,
            observer=self.bus,
        )
        spec = self.spec
        try:
            infos: Sequence[tuple[Any, ...]]
            try:
                # A numeric host needs no lookup, and no executor thread.
                infos = socket.getaddrinfo(
                    spec.host, spec.port, type=socket.SOCK_DGRAM,
                    flags=socket.AI_NUMERICHOST,
                )
            except socket.gaierror:
                infos = await loop.getaddrinfo(
                    spec.host, spec.port, type=socket.SOCK_DGRAM
                )
            family, kind, proto, _, address = infos[0]
            sock = self._udp_socket = socket.socket(family, kind, proto)
            sock.setblocking(False)
            sock.bind(address)
            loop.add_reader(sock.fileno(), self._on_readable)
            sockname = sock.getsockname()
            self.udp_address = (sockname[0], sockname[1])
            # TCP binds the port UDP actually got (matters when port=0).
            self._tcp_server = await asyncio.start_server(
                self._on_tcp, spec.host, self.udp_address[1]
            )
            if spec.metrics_port >= 0:
                self._metrics_server = await start_metrics_server(
                    spec.host, spec.metrics_port, self.scrape
                )
                msock = self._metrics_server.sockets[0].getsockname()
                self.metrics_address = (msock[0], msock[1])
        except BaseException:
            # A failed bind must not leave an already-bound socket behind.
            await self.stop()
            raise

    async def stop(self) -> None:
        """Cancel every pending timer and close the listeners."""
        if self.clock is not None:
            self.clock.close()
        sock = self._udp_socket
        if sock is not None:
            self._udp_socket = None
            asyncio.get_running_loop().remove_reader(sock.fileno())
            # Closed here, so the port is free once stop() returns.
            sock.close()
        for server in (self._tcp_server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()

    def scrape(self) -> str:
        """One scrape body: front-end counters + the core's event tally."""
        server = self.server
        stale_served = server.metrics.sr_stale_hits if server is not None else 0
        return self.metrics.render(stale_served) + render_prometheus(self.bus)

    def sample_names(self, count: int) -> tuple[Name, ...]:
        """Deterministic resolvable host names (for clients and tests)."""
        names = [
            hosts[0]
            for _zone, hosts in sorted(self._built.catalog.items())
            if hosts
        ]
        return tuple(names[:count])

    # -- datagram / stream entry points -------------------------------------

    def _on_readable(self) -> None:
        """Answer the datagrams queued on the socket, up to a batch."""
        sock = self._udp_socket
        if sock is None:
            return
        buffer, view = self._udp_buffer, self._udp_view
        for _ in range(UDP_BATCH):
            try:
                size, addr = sock.recvfrom_into(buffer)
            except BlockingIOError:
                return
            except OSError:
                # An error the kernel queued for an earlier reply (ICMP
                # unreachable): no query in it, but more may be waiting.
                continue
            self._on_udp(bytes(view[:size]), addr)

    def _on_udp(self, data: bytes, addr: tuple) -> None:
        try:
            query = decode_query(data)
        except WireFormatError:
            self.metrics.formerr += 1
            reject = _formerr_for(data)
            if reject is not None:
                self._send_udp(reject, addr)
            return
        self.metrics.udp_queries += 1
        payload = self._resolve(query, UDP_PAYLOAD_MAX)
        if payload[2] & (FLAG_TC >> 8):
            self.metrics.truncated += 1
        self._send_udp(payload, addr)

    def _send_udp(self, payload: bytes, addr: tuple) -> None:
        """Send a reply, or drop it when the socket cannot take it now,
        as a full UDP buffer would."""
        sock = self._udp_socket
        if sock is None:
            return
        try:
            sock.sendto(payload, addr)
        except OSError:
            pass

    async def _on_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(_TCP_LENGTH.size)
                    (length,) = _TCP_LENGTH.unpack(header)
                    data = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                try:
                    query = decode_query(data)
                except WireFormatError:
                    self.metrics.formerr += 1
                    reject = _formerr_for(data)
                    if reject is None:
                        return
                    writer.write(frame_tcp(reject))
                    await writer.drain()
                    continue
                self.metrics.tcp_queries += 1
                writer.write(frame_tcp(self._resolve(query, _TCP_PAYLOAD_MAX)))
                await writer.drain()
        finally:
            writer.close()

    # -- resolution ---------------------------------------------------------

    def _resolve(self, query: DecodedQuery, max_size: int) -> bytes:
        """The reply to ``query`` on the wire, at most ``max_size`` octets.

        A resolution that raises, or an answer the codec cannot encode,
        is answered SERVFAIL and reported to the loop's exception
        handler; every SERVFAIL is counted.
        """
        server, clock = self.server, self.clock
        if server is None or clock is None:
            raise RuntimeError("front end not started")
        question = query.question
        try:
            rcode, answer = reply = reply_for(server.handle_stub_query(
                question.name, question.rrtype, clock.now()
            ))
            payload = encode_response(query, rcode, answer, max_size=max_size)
        except Exception as error:
            asyncio.get_running_loop().call_exception_handler(
                {"message": "query not answered", "exception": error}
            )
            reply = _SERVFAIL
            payload = encode_response(
                query, Rcode.SERVFAIL, None, max_size=max_size
            )
        if reply is _SERVFAIL:
            self.metrics.servfail += 1
        return payload


def _formerr_for(data: bytes) -> bytes | None:
    """A minimal FORMERR reply when the packet at least carries an id."""
    if len(data) < HEADER.size:
        return None
    message_id, flags = struct.unpack_from("!HH", data)
    if flags & FLAG_QR:
        return None  # never answer answers
    return HEADER.pack(
        message_id, FLAG_QR | int(Rcode.FORMERR), 0, 0, 0, 0
    )

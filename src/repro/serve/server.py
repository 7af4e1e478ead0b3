"""The asyncio DNS front end: UDP + TCP listeners over a CachingServer.

Threading model: there is one thread, the asyncio loop's.  It owns the
sockets, the wire codec, the
:class:`~repro.core.caching_server.CachingServer` and its
:class:`~repro.serve.clock.WallClock` timers.  A datagram is answered
inside the one ``datagram_received`` call that delivered it: decode,
``handle_stub_query``, render, encode, ``sendto``.  The core resolves
against the in-process simulated network, so resolution never waits on
I/O and one resolution runs at a time; overload waits, and past its
size drops, in the kernel's socket buffer.  Renewal and ``swr`` timer
bodies run on the same loop, between datagrams.

The front end holds no answers and no map keyed by question or client:
what may be answered, fresh or stale, is decided by the core's one cache
under the selected scheme (run ``--scheme swr:30`` for
stale-while-revalidate).  Layered on top:

* **Typed errors** — a malformed query gets FORMERR when it carries an
  id and silence when it does not; a resolution that raises answers
  SERVFAIL and is reported to the loop's exception handler.
* **Truncation + TCP fallback** — UDP responses above the spec's
  payload ceiling degrade to TC-marked header+question; the TCP
  listener answers the retry without a ceiling.
"""

from __future__ import annotations

import asyncio
import struct

from repro.core.caching_server import CachingServer, Resolution, ResolutionOutcome
from repro.core.schemes import parse_scheme
from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import make_scenario
from repro.obs.events import EventBus
from repro.obs.sinks import PrometheusSink
from repro.serve.clock import WallClock
from repro.serve.metrics import ServeMetrics, start_metrics_server
from repro.serve.spec import ServeSpec
from repro.serve.wire import (
    FLAG_QR,
    FLAG_TC,
    HEADER,
    DecodedQuery,
    WireFormatError,
    decode_query,
    encode_response,
    frame_tcp,
)

_TCP_LENGTH = struct.Struct("!H")

_FAILED = Resolution(ResolutionOutcome.FAILURE)


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, front_end: "DnsFrontEnd") -> None:
        self._front_end = front_end
        self.transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: tuple) -> None:
        transport = self.transport
        if transport is not None:
            self._front_end._on_udp(data, addr, transport)


class DnsFrontEnd:
    """One bound front end: sockets, metrics, and the resolver core."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
        self._built = scenario.built
        self._config = parse_scheme(spec.scheme)
        self.metrics = ServeMetrics()
        self.bus = EventBus()
        self.prometheus = PrometheusSink().attach(self.bus)
        self.clock: WallClock | None = None
        self.server: CachingServer | None = None
        self._udp_transport: asyncio.DatagramTransport | None = None
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
            network=self._make_upstream(),
            clock=self.clock,
            config=self._config,
            observer=self.bus,
        )
        spec = self.spec
        try:
            self._udp_transport, _ = await loop.create_datagram_endpoint(
                lambda: _UdpProtocol(self),
                local_addr=(spec.host, spec.port),
            )
            sockname = self._udp_transport.get_extra_info("sockname")
            self.udp_address = (sockname[0], sockname[1])
            # TCP binds the port UDP actually got (matters when port=0).
            self._tcp_server = await asyncio.start_server(
                self._on_tcp, spec.host, self.udp_address[1]
            )
            if spec.metrics_port >= 0:
                self._metrics_server = await start_metrics_server(
                    spec.host, spec.metrics_port, self.metrics,
                    self.prometheus,
                )
                msock = self._metrics_server.sockets[0].getsockname()
                self.metrics_address = (msock[0], msock[1])
        except BaseException:
            # A failed bind must not leave an already-bound socket behind.
            await self.stop()
            raise

    def _make_upstream(self):  # noqa: ANN202 - Upstream protocol
        """The transport the core resolves through.

        The front end answers from the *simulated* zone tree (that is
        the point: real traffic against the paper's hierarchy), so this
        is the simulated Network.  It answers in-process, which is why
        resolving inline on the loop thread never blocks it.
        """
        from repro.simulation.network import Network

        return Network(self._built.tree)

    async def stop(self) -> None:
        """Cancel every pending timer and close the listeners."""
        if self.clock is not None:
            self.clock.close()
        if self._udp_transport is not None:
            self._udp_transport.close()
            # The transport releases its socket on the next loop turn;
            # take it, so the port is free once stop() returns.
            await asyncio.sleep(0)
        for server in (self._tcp_server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()

    def sample_names(self, count: int) -> tuple[Name, ...]:
        """Deterministic resolvable host names (for clients and tests)."""
        names = [
            hosts[0]
            for _zone, hosts in sorted(self._built.catalog.items())
            if hosts
        ]
        return tuple(names[:count])

    # -- datagram / stream entry points -------------------------------------

    def _on_udp(
        self, data: bytes, addr: tuple, transport: asyncio.DatagramTransport
    ) -> None:
        try:
            query = decode_query(data)
        except WireFormatError:
            self.metrics.formerr += 1
            reject = _formerr_for(data)
            if reject is not None:
                transport.sendto(reject, addr)
            return
        self.metrics.udp_queries += 1
        payload = encode_response(
            self._resolve(query),
            message_id=query.message_id,
            raw_labels=query.raw_labels,
            recursion_desired=query.recursion_desired,
            max_size=self.spec.udp_payload_max,
        )
        if payload[2] & (FLAG_TC >> 8):
            self.metrics.truncated += 1
        transport.sendto(payload, addr)

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
                payload = encode_response(
                    self._resolve(query),
                    message_id=query.message_id,
                    raw_labels=query.raw_labels,
                    recursion_desired=query.recursion_desired,
                )
                writer.write(frame_tcp(payload))
                await writer.drain()
        finally:
            writer.close()

    # -- resolution ---------------------------------------------------------

    def _resolve(self, query: DecodedQuery) -> Message:
        """Resolve ``query`` through the core, count and render the reply.

        A resolution that raises is answered SERVFAIL and reported to
        the loop's exception handler.
        """
        server, clock = self.server, self.clock
        if server is None or clock is None:
            raise RuntimeError("front end not started")
        question = query.question
        try:
            resolution = server.handle_stub_query(
                question.name, question.rrtype, clock.now()
            )
        except Exception as error:
            asyncio.get_running_loop().call_exception_handler(
                {"message": "resolution failed", "exception": error}
            )
            resolution = _FAILED
        rcode = Rcode.NOERROR
        answer: tuple = ()
        outcome = resolution.outcome
        if outcome.failed:
            self.metrics.servfail += 1
            rcode = Rcode.SERVFAIL
        elif outcome is ResolutionOutcome.NXDOMAIN:
            rcode = Rcode.NXDOMAIN
        elif resolution.answer is not None:
            answer = (resolution.answer,)
        if outcome is ResolutionOutcome.STALE_HIT:
            self.metrics.stale_served += 1
        return Message(
            question=question,
            rcode=rcode,
            authoritative=False,
            answer=answer,
            message_id=query.message_id,
        )


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


async def serve_until(
    spec: ServeSpec,
    shutdown: "asyncio.Event | None" = None,
) -> DnsFrontEnd:
    """Start a front end and (when given) block until ``shutdown``.

    Returns the running front end; the caller owns ``stop()`` when no
    shutdown event is supplied.
    """
    front_end = DnsFrontEnd(spec)
    await front_end.start()
    if shutdown is not None:
        try:
            await shutdown.wait()
        finally:
            await front_end.stop()
    return front_end

"""The asyncio DNS front end: UDP + TCP listeners over a CachingServer.

Threading model (the whole design in one paragraph): the asyncio loop
thread owns sockets, parses/encodes packets, and keeps the in-flight
table; one dedicated ``repro-resolver`` thread owns the
:class:`~repro.core.caching_server.CachingServer` and drains a mailbox
(a ``queue.SimpleQueue`` of callables) — every stub query *and* every
renewal timer body (via :class:`~repro.serve.clock.WallClock`'s runner,
which is the mailbox's ``put``) executes there, preserving the core's
single-threaded discipline without any locks inside it.  A served query
costs one hop each way: ``_submit`` puts one job in the mailbox, the
resolver thread runs ``handle_stub_query`` and posts the result back
with one ``call_soon_threadsafe(_landed, ...)``, and ``_landed``
renders, encodes and sends to everyone waiting on that question.

The front end holds no answers: what may be answered, fresh or stale,
is decided by the core's one cache under the selected scheme (run
``--scheme swr:30`` for stale-while-revalidate).  Layered on top:

* **Singleflight** — concurrent identical questions (same name/type)
  collapse onto one in-flight resolution; followers join the leader's
  waiter list and get its answer, never reaching the resolver thread.
* **Bounded, typed overload and errors** — at most ``_MAX_INFLIGHT``
  distinct questions are in flight; a new one beyond that is answered
  SERVFAIL at once.  A resolution that raises answers SERVFAIL to every
  waiter and is reported to the loop's exception handler; the resolver
  thread survives.
* **Truncation + TCP fallback** — UDP responses above the spec's
  payload ceiling degrade to TC-marked header+question; the TCP
  listener answers the retry without a ceiling.
"""

from __future__ import annotations

import asyncio
import queue
import struct
import threading
from functools import partial
from typing import Callable

from repro.core.budget import FetchBudget
from repro.core.caching_server import CachingServer, Resolution, ResolutionOutcome
from repro.core.schemes import parse_scheme
from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name
from repro.dns.rrtypes import RRTYPE_BITS
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

#: Distinct questions in flight before new ones are shed with SERVFAIL:
#: the bound on the in-flight table and, through it, on the mailbox.
_MAX_INFLIGHT = 1024

_FAILED = Resolution(ResolutionOutcome.FAILURE)

Deliver = Callable[[Message], None]
"""Where one waiter's rendered answer goes (loop thread)."""

Job = Callable[[], object]
"""One unit of work for the resolver thread."""


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
    """One bound front end: sockets, metrics, and the resolver thread."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
        self._built = scenario.built
        self._config = parse_scheme(spec.scheme)
        self.metrics = ServeMetrics()
        self.bus = EventBus()
        self.prometheus = PrometheusSink().attach(self.bus)
        # The resolver thread's mailbox; None tells it to exit.
        self._jobs: queue.SimpleQueue[Job | None] = queue.SimpleQueue()
        self._resolver: threading.Thread | None = None
        self.clock: WallClock | None = None
        self.server: CachingServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # Singleflight: packed question key -> everyone waiting on the
        # one resolution in flight for it (the leader first).
        self._inflight: dict[int, list[tuple[DecodedQuery, Deliver]]] = {}
        # Per-client concurrent upstream-fetch budgets, one entry per
        # client with a resolution in flight (always empty when the
        # spec leaves client_fetch_budget at 0 = unlimited).  Budgets
        # cap *leader* resolutions only: singleflight followers cost
        # the resolver thread nothing, so they stay free — an abusive
        # client is limited precisely in the currency it burns,
        # resolver work.
        self._client_budgets: dict[str, FetchBudget] = {}
        # Unanswered _resolve() calls, so stop() can cancel them.
        self._pending: set[asyncio.Future[Message]] = set()
        self._udp_transport: asyncio.DatagramTransport | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self.udp_address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind UDP/TCP/metrics listeners and build the resolver core."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.clock = WallClock(loop, runner=self._jobs.put)
        self.server = CachingServer(
            root_hints=self._built.tree.root_hints(),
            network=self._make_upstream(),
            clock=self.clock,
            config=self._config,
            observer=self.bus,
        )
        self._resolver = threading.Thread(
            target=self._drain,
            args=(loop,),
            name="repro-resolver",
            daemon=True,
        )
        self._resolver.start()
        spec = self.spec
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
                spec.host, spec.metrics_port, self.metrics, self.prometheus
            )
            msock = self._metrics_server.sockets[0].getsockname()
            self.metrics_address = (msock[0], msock[1])

    def _make_upstream(self):  # noqa: ANN202 - Upstream protocol
        """The transport the core resolves through.

        The front end answers from the *simulated* zone tree (that is
        the point: real traffic against the paper's hierarchy), so this
        is the simulated Network; swap in
        :class:`~repro.serve.upstream.UdpUpstream` here to resolve
        against live servers instead.
        """
        from repro.simulation.network import Network

        return Network(self._built.tree)

    async def stop(self) -> None:
        """Close listeners, drop in-flight work, stop the resolver.

        Waiters still in flight get no answer (a pending ``_resolve()``
        is cancelled); queued jobs are discarded and the one the
        resolver thread is running is waited for.
        """
        self._inflight.clear()
        self._client_budgets.clear()
        for future in list(self._pending):
            future.cancel()
        if self._udp_transport is not None:
            self._udp_transport.close()
        for server in (self._tcp_server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        if self._resolver is not None:
            try:
                while True:
                    self._jobs.get_nowait()
            except queue.Empty:
                pass
            self._jobs.put(None)
            self._resolver.join()
            self._resolver = None

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

        def deliver(message: Message) -> None:
            payload = encode_response(
                message,
                message_id=query.message_id,
                raw_labels=query.raw_labels,
                recursion_desired=query.recursion_desired,
                max_size=self.spec.udp_payload_max,
            )
            if payload[2] & (FLAG_TC >> 8):
                self.metrics.truncated += 1
            transport.sendto(payload, addr)

        self._submit(query, addr[0], deliver)

    async def _on_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        client = peername[0] if peername else "tcp"
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
                message = await self._resolve(query, client=client)
                payload = encode_response(
                    message,
                    message_id=query.message_id,
                    raw_labels=query.raw_labels,
                    recursion_desired=query.recursion_desired,
                )
                writer.write(frame_tcp(payload))
                await writer.drain()
        finally:
            writer.close()

    # -- resolution: singleflight over one mailbox hop ------------------------

    async def _resolve(self, query: DecodedQuery, client: str = "") -> Message:
        """:meth:`_submit` behind one loop future (TCP path and tests)."""
        future: asyncio.Future[Message] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)

        def deliver(message: Message) -> None:
            if not future.done():  # the caller may have given up
                future.set_result(message)

        self._submit(query, client, deliver)
        return await future

    def _submit(
        self, query: DecodedQuery, client: str, deliver: Deliver
    ) -> None:
        """Answer ``query`` through ``deliver``: now when it is refused,
        else when its question's resolution lands (loop thread)."""
        if self._resolver is None:
            raise RuntimeError("front end not started")
        question = query.question
        key = (question.name.iid << RRTYPE_BITS) | question.rrtype
        waiters = self._inflight.get(key)
        if waiters is not None:
            self.metrics.singleflight_hits += 1
            waiters.append((query, deliver))
            return
        if len(self._inflight) >= _MAX_INFLIGHT:
            # Overload sheds new questions; it never queues them.
            deliver(self._answer(query, _FAILED))
            return
        budget = self._client_budget(client)
        if budget is not None and not budget.spend():
            # Over-budget clients get an immediate SERVFAIL instead
            # of a resolver-thread slot (graceful refusal, same
            # semantics as the simulated fetch budget).
            self.metrics.budget_rejections += 1
            deliver(self._answer(query, _FAILED))
            return
        self._inflight[key] = [(query, deliver)]
        self._jobs.put(partial(self._work, key, question, client))

    def _client_budget(self, client: str) -> FetchBudget | None:
        limit = self.spec.client_fetch_budget
        if limit <= 0:
            return None
        budget = self._client_budgets.get(client)
        if budget is None:
            budget = FetchBudget(limit)
            self._client_budgets[client] = budget
        return budget

    def _drain(self, loop: asyncio.AbstractEventLoop) -> None:
        """The resolver thread: run mailbox jobs until told to stop.

        A job that raises — a stub query or a renewal timer body — is
        reported to the loop's exception handler and the thread carries
        on.
        """
        for job in iter(self._jobs.get, None):
            try:
                job()
            except Exception as error:
                loop.call_soon_threadsafe(
                    loop.call_exception_handler,
                    {"message": "resolver job failed", "exception": error},
                )

    def _work(self, key: int, question: Question, client: str) -> None:
        """One stub query through the core, its result posted back to
        the loop (resolver thread).  A resolution that raises lands as
        a failure, so its waiters get SERVFAIL, not silence."""
        loop, clock, server = self._loop, self.clock, self.server
        if loop is None or clock is None or server is None:
            raise RuntimeError("front end not started")
        resolution = _FAILED
        try:
            resolution = server.handle_stub_query(
                question.name, question.rrtype, clock.now()
            )
        finally:
            loop.call_soon_threadsafe(self._landed, key, client, resolution)

    def _landed(self, key: int, client: str, resolution: Resolution) -> None:
        """Release the leader's budget unit and answer every waiter of
        the flight (loop thread)."""
        waiters = self._inflight.pop(key, None)
        if waiters is None:
            return  # stop() dropped the flight
        budget = self._client_budgets.get(client)
        if budget is not None:
            budget.release()
            if budget.used == 0:
                del self._client_budgets[client]
        for query, deliver in waiters:
            try:
                deliver(self._answer(query, resolution))
            except Exception as error:
                # One waiter's encode/send failure is its own.
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "serve reply failed", "exception": error}
                )

    def _answer(self, query: DecodedQuery, resolution: Resolution) -> Message:
        """Count and render one waiter's response."""
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
            question=query.question,
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

"""Closed-loop UDP load driver for a running ``repro serve`` front end.

Each client keeps exactly one query in flight (closed loop — the paper's
stub-resolver model), round-robining over a fixed name list.  Latencies
are wall-clock per-query; the report carries throughput and the p50/p99
tail.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from repro.dns.message import Question
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.serve.wire import WireFormatError, decode_message, encode_query


@dataclass(frozen=True)
class LoadReport:
    """What one closed-loop run measured."""

    queries: int
    answered: int
    failed: int
    duration_seconds: float
    qps: float
    p50_ms: float
    p99_ms: float

    def as_dict(self) -> dict[str, float | int]:
        return {
            "queries": self.queries,
            "answered": self.answered,
            "failed": self.failed,
            "duration_seconds": self.duration_seconds,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        return (
            f"{self.queries} queries in {self.duration_seconds:.2f}s "
            f"({self.qps:.0f} qps), {self.answered} answered / "
            f"{self.failed} failed, p50 {self.p50_ms:.2f}ms, "
            f"p99 {self.p99_ms:.2f}ms"
        )


class _ClientProtocol(asyncio.DatagramProtocol):
    """Resolves the pending future matching each response's message id."""

    def __init__(self) -> None:
        self.pending: dict[int, asyncio.Future[bytes]] = {}

    def datagram_received(self, data: bytes, addr: tuple) -> None:
        if len(data) < 2:
            return
        message_id = (data[0] << 8) | data[1]
        future = self.pending.pop(message_id, None)
        if future is not None and not future.done():
            future.set_result(data)

    def error_received(self, error: Exception) -> None:
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = int(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


async def run_load(
    host: str,
    port: int,
    names: "tuple[Name, ...] | list[Name]",
    *,
    queries: int,
    clients: int,
    timeout: float = 2.0,
) -> LoadReport:
    """Send ``queries`` questions from ``clients`` closed-loop clients."""
    if not names:
        raise ValueError("run_load needs at least one name to query")
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    answered = 0
    failed = 0
    sent = 0
    next_id = 1

    async def client(worker: int) -> None:
        nonlocal answered, failed, sent, next_id
        transport, protocol = await loop.create_datagram_endpoint(
            _ClientProtocol, remote_addr=(host, port)
        )
        try:
            position = worker
            while sent < queries:
                sent += 1
                message_id = next_id & 0xFFFF or 1
                next_id += 1
                name = names[position % len(names)]
                position += clients
                question = Question(name, RRType.A)
                packet = encode_query(question, message_id)
                future: asyncio.Future[bytes] = loop.create_future()
                protocol.pending[message_id] = future
                started = time.perf_counter()
                transport.sendto(packet)
                try:
                    data = await asyncio.wait_for(future, timeout)
                except (asyncio.TimeoutError, OSError):
                    protocol.pending.pop(message_id, None)
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - started)
                try:
                    decoded = decode_message(data)
                except WireFormatError:
                    failed += 1
                    continue
                if decoded.message.rcode.value == 0 and decoded.message.answer:
                    answered += 1
                else:
                    failed += 1
        finally:
            transport.close()

    begin = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(clients)))
    duration = time.perf_counter() - begin
    latencies.sort()
    total = answered + failed
    return LoadReport(
        queries=total,
        answered=answered,
        failed=failed,
        duration_seconds=duration,
        qps=total / duration if duration > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p99_ms=_percentile(latencies, 0.99) * 1000.0,
    )


async def selftest(spec) -> LoadReport:  # noqa: ANN001 - ServeSpec
    """Start a front end per ``spec``, drive it, stop it, report."""
    from repro.serve.server import DnsFrontEnd

    front_end = DnsFrontEnd(spec)
    await front_end.start()
    try:
        if front_end.udp_address is None:
            raise RuntimeError("front end did not bind a UDP port")
        host, port = front_end.udp_address
        names = front_end.sample_names(max(8, spec.selftest_clients))
        return await run_load(
            host,
            port,
            names,
            queries=spec.selftest_queries,
            clients=spec.selftest_clients,
        )
    finally:
        await front_end.stop()

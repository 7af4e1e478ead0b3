"""Serve-side counters plus the HTTP endpoint that exposes them.

The endpoint renders two blocks in one scrape: the front end's own
counters (queries by transport, stale serves, truncations, FORMERR and
SERVFAIL answers) and :func:`~repro.obs.sinks.render_prometheus` of the
resolver core's event bus — so one ``curl`` shows both the transport
layer and the simulation-grade event taxonomy underneath it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable

from repro.obs.sinks import PROMETHEUS_CONTENT_TYPE


@dataclass(slots=True)
class ServeMetrics:
    """Plain counters for the wall-clock front end.

    Mutated and scraped on the loop thread, the front end's only thread.
    Stale serves are the core's count: the resolver books every
    STALE_HIT in its :class:`~repro.simulation.metrics.ReplayMetrics`.
    """

    udp_queries: int = 0
    tcp_queries: int = 0
    truncated: int = 0
    formerr: int = 0
    servfail: int = 0

    def render(self, stale_served: int) -> str:
        """The front-end counters in Prometheus text exposition format,
        with the core's ``stale_served`` count among them."""
        lines = [
            "# HELP repro_serve_queries_total DNS queries received by transport.",
            "# TYPE repro_serve_queries_total counter",
            f'repro_serve_queries_total{{transport="udp"}} {self.udp_queries}',
            f'repro_serve_queries_total{{transport="tcp"}} {self.tcp_queries}',
            "# HELP repro_serve_singleflight_hits_total "
            "Always 0: each query is resolved inside the callback that "
            "received it, so none waits on another's resolution "
            "(kept because benchmarks/perf/workloads.py reads it).",
            "# TYPE repro_serve_singleflight_hits_total counter",
            "repro_serve_singleflight_hits_total 0",
            "# HELP repro_serve_stale_served_total "
            "Responses the core answered from a lapsed cache entry "
            "(STALE_HIT under serve-stale/swr schemes).",
            "# TYPE repro_serve_stale_served_total counter",
            f"repro_serve_stale_served_total {stale_served}",
            "# HELP repro_serve_truncated_total UDP responses truncated with TC set.",
            "# TYPE repro_serve_truncated_total counter",
            f"repro_serve_truncated_total {self.truncated}",
            "# HELP repro_serve_formerr_total Queries dropped or refused as malformed.",
            "# TYPE repro_serve_formerr_total counter",
            f"repro_serve_formerr_total {self.formerr}",
            "# HELP repro_serve_servfail_total Resolutions that failed (SERVFAIL sent).",
            "# TYPE repro_serve_servfail_total counter",
            f"repro_serve_servfail_total {self.servfail}",
        ]
        return "\n".join(lines) + "\n"


async def start_metrics_server(
    host: str, port: int, scrape: Callable[[], str]
) -> asyncio.AbstractServer:
    """Serve the ``scrape()`` body over minimal HTTP/1.0 at any path."""

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # Drain the request head; the response is the same for
            # every path and method.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = scrape().encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                + f"Content-Type: {PROMETHEUS_CONTENT_TYPE}\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            )
            writer.write(body)
            await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)

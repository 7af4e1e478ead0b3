"""ServeSpec: the frozen, picklable description of one ``repro serve``.

Follows the experiment-spec contract (DESIGN.md §10): every field is a
CLI-expressible value, so the ``repro serve`` subcommand's flags are
generated from this dataclass by the same registry machinery the
experiments use — one source of truth for names, defaults and help.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.scenarios import Scale


@dataclass(frozen=True)
class ServeSpec:
    """What to serve, where to bind, and how to self-test."""

    host: str = field(default="127.0.0.1", metadata={
        "help": "address to bind the DNS and metrics listeners on"})
    port: int = field(default=5353, metadata={
        "help": "UDP+TCP port for DNS (0 picks a free port)"})
    metrics_port: int = field(default=9153, metadata={
        "help": "HTTP port for the Prometheus endpoint (0 picks, -1 disables)"})
    scheme: str = field(default="combination", metadata={
        "help": "resilience scheme for the resolver core "
                "(vanilla, refresh, a-lfu:5, long-ttl:7, swr:3600, "
                "decoupled:7, ...)"})
    scale: Scale | None = field(default=None, metadata={
        "help": "zone-tree scale to build and answer from"})
    seed: int = field(default=7, metadata={
        "help": "hierarchy/trace seed (fixes which names exist)"})
    udp_payload_max: int = field(default=512, metadata={
        "help": "UDP response ceiling before TC truncation"})
    client_fetch_budget: int = field(default=0, metadata={
        "help": "max concurrent upstream resolutions per client address "
                "(0 = unlimited); over-budget queries get SERVFAIL"})
    print_names: int = field(default=3, metadata={
        "help": "log this many resolvable sample names at startup"})
    selftest: bool = field(default=False, metadata={
        "help": "serve on a loopback port, run the closed-loop load "
                "driver against it, print qps/latency, exit"})
    selftest_queries: int = field(default=300, metadata={
        "help": "total queries the selftest driver sends"})
    selftest_clients: int = field(default=8, metadata={
        "help": "concurrent closed-loop selftest clients"})
    selftest_out: str | None = field(default=None, metadata={
        "help": "write the selftest load report as JSON to this path"})

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        if not -1 <= self.metrics_port <= 65535:
            raise ValueError(f"metrics_port {self.metrics_port} out of range")
        if self.udp_payload_max < 64:
            raise ValueError("udp_payload_max must be at least 64 octets")
        if self.client_fetch_budget < 0:
            raise ValueError("client_fetch_budget must be non-negative")
        if self.selftest_queries < 1 or self.selftest_clients < 1:
            raise ValueError("selftest_queries/clients must be positive")

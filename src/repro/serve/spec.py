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
    """What to serve and where to bind."""

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
    print_names: int = field(default=3, metadata={
        "help": "log this many resolvable sample names at startup"})

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        if not -1 <= self.metrics_port <= 65535:
            raise ValueError(f"metrics_port {self.metrics_port} out of range")

"""Response-time analysis (paper §4, Long TTL benefits).

"this modification reduces overall DNS traffic and improves DNS query
response time since costly walks of the DNS tree are avoided."

For each scheme this replays a trace (no attack) and reports the mean
per-lookup network wait, the stub cache-hit rate, and the average number
of CS queries per stub lookup — the three quantities that explain each
other: fewer tree walks ⇒ fewer round trips ⇒ lower latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.config import ResilienceConfig
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.table import ResultTable

DEFAULT_SCHEMES = (
    ("vanilla", ResilienceConfig.vanilla()),
    ("refresh", ResilienceConfig.refresh()),
    ("refresh+a-lfu3", ResilienceConfig.refresh_renew("a-lfu", 3)),
    ("refresh+ttl7d", ResilienceConfig.refresh_long_ttl(7)),
    ("combination", ResilienceConfig.combination()),
)


@dataclass(frozen=True)
class LatencySpec:
    """Declarative latency-experiment request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    trace_name: str = "TRC1"


def run(spec: LatencySpec) -> ResultTable:
    """Mean response time per scheme over a full no-attack replay."""
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    pairs = [
        (label, ReplaySpec.for_scenario(scenario, spec.trace_name, config))
        for label, config in DEFAULT_SCHEMES
    ]
    return ResultTable(
        "Response time — normal operation (no attack)", ("Scheme",),
        (
            ("Mean wait / lookup", lambda s: f"{s.mean_latency * 1000:.1f} ms"),
            ("SR cache hits", lambda s: f"{s.cache_hit_rate * 100:.1f} %"),
            ("CS queries / lookup", lambda s: f"{s.cs_queries_per_lookup:.3f}"),
        ),
        run_rows(pairs),
    )

"""IRR-churn experiment: what long TTLs cost when zones change servers.

Paper §4 (Long TTL): "if the IRR changes at the ANs, the cached copy
will be out of date... The penalty paid for querying an obsolete
name-server is a longer resolution time.  [...] In the worst case, all
servers in the old IRR fail to respond and the parent zone must be
queried to reset the IRR."

This experiment makes the trade-off quantitative.  A set of zones
migrates to entirely new server sets mid-trace; we replay the same trace
under increasing IRR TTLs and report:

* lookups that *touched an obsolete server* (paid a penalty);
* lookups that *failed* (should stay ~0 — the parent fallback works);
* mean resolution latency, where each query to a dead/lame server costs
  a timeout/RTT.

Expected shape: longer TTLs widen the inconsistency window and raise the
latency tail, but availability is unharmed — supporting the paper's
argument that the long-TTL downside is latency, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.experiments.table import ResultTable, percent
from repro.hierarchy.builder import BuiltHierarchy, HierarchyConfig, build_hierarchy
from repro.hierarchy.churn import ChurnSchedule, apply_churn_event, generate_churn
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace

DAY = 86400.0


@dataclass
class ChurnReplayResult:
    """One (scheme, churn) replay's outcome."""

    label: str
    sr_failure_rate: float
    mean_latency: float
    stale_touches: int
    """CS queries answered by nobody because the target was obsolete."""

    stale_answer_rate: float = 0.0
    """Fraction of stub answers served from lapsed records (SWR/serve-
    stale staleness actually handed to clients)."""

    upstream_queries: int = 0
    """Total CS -> AN messages (demand + renewal) — the equal-budget
    currency the Renewal 2.0 comparison normalises by."""

    invalidations: int = 0
    """Update-channel invalidations applied (``decoupled`` only)."""


#: The churn table's columns; a row is one :class:`ChurnReplayResult`.
CHURN_COLUMNS = (
    ("SR failures", percent(lambda row: row.sr_failure_rate)),
    ("Mean latency", lambda row: f"{row.mean_latency * 1000:.1f} ms"),
    ("Obsolete-server hits", lambda row: row.stale_touches),
    ("Stale answers", percent(lambda row: row.stale_answer_rate)),
    ("Upstream queries", lambda row: row.upstream_queries),
)


def run_churn_replay(
    built: BuiltHierarchy,
    trace: Trace,
    config: ResilienceConfig,
    churn: ChurnSchedule,
    seed: int = 0,
) -> ChurnReplayResult:
    """Replay ``trace`` while applying churn events at their times.

    The caller must pass a *private* hierarchy (churn mutates it).
    """
    tree = built.tree
    if config.long_ttl is not None:
        tree.apply_long_ttl(config.long_ttl)
    engine = SimulationEngine()
    network = Network(tree)
    metrics = ReplayMetrics()
    server = CachingServer(
        root_hints=tree.root_hints(),
        network=network,
        clock=engine,
        config=config,
        metrics=metrics,
        seed=seed,
    )
    # The update/invalidation channel: under `decoupled`, every landed
    # migration notifies the caching server (which self-guards on
    # config.update_channel, so the tuple is passed unconditionally).
    listeners = (server.handle_invalidation,)
    for event in churn.events:
        engine.schedule(
            event.time,
            lambda now, event=event: apply_churn_event(
                tree, event, decommission_old=churn.decommission_old,
                listeners=listeners,
            ),
        )
    lost_before = network.queries_lost
    for query in trace:
        engine.advance_to(query.time)
        server.handle_stub_query(query.qname, query.rrtype, query.time)
    engine.advance_to(trace.duration)
    return ChurnReplayResult(
        label=config.label,
        sr_failure_rate=metrics.sr_failure_rate,
        mean_latency=metrics.mean_latency,
        stale_touches=network.queries_lost - lost_before,
        stale_answer_rate=metrics.stale_answer_rate,
        upstream_queries=metrics.total_outgoing,
        invalidations=metrics.invalidations,
    )


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative churn-experiment request (the registry's spec)."""

    seed: int = 3
    churn_fraction: float = 0.3
    decommission_old: bool = True
    hierarchy: HierarchyConfig | None = field(
        default=None, metadata={"cli": False}
    )
    workload: WorkloadConfig | None = field(
        default=None, metadata={"cli": False}
    )


def run(spec: ChurnSpec) -> ResultTable:
    """Compare IRR TTL settings under mid-trace server migrations.

    Each scheme gets a freshly built (identical-seed) hierarchy because
    churn mutates the tree.  ``churn_fraction`` of eligible own-server
    SLDs migrate, uniformly over days 1-6.
    """
    hierarchy_config = spec.hierarchy or HierarchyConfig(
        num_tlds=8, num_slds=120, num_providers=3
    )
    workload_config = spec.workload or WorkloadConfig(
        duration_days=7.0, queries_per_day=2_000, num_clients=50
    )
    schemes = [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh().with_label("refresh"),
        ResilienceConfig.refresh_long_ttl(3).with_label("refresh+ttl3d"),
        ResilienceConfig.refresh_long_ttl(7).with_label("refresh+ttl7d"),
        ResilienceConfig.swr(),
        ResilienceConfig.decoupled(7),
    ]
    rows: dict[str, ChurnReplayResult] = {}
    churned = 0
    for config in schemes:
        built = build_hierarchy(hierarchy_config, seed=spec.seed)
        trace = TraceGenerator(built.catalog, workload_config,
                               seed=spec.seed).generate("CHURN", stream=1)
        eligible = _eligible_zone_count(built)
        churn = generate_churn(
            built,
            start=1 * DAY,
            end=6 * DAY,
            zone_count=max(1, int(eligible * spec.churn_fraction)),
            seed=spec.seed,
            decommission_old=spec.decommission_old,
        )
        churned = len(churn)
        rows[config.label] = run_churn_replay(built, trace, config, churn,
                                              seed=spec.seed)
    return ResultTable(
        f"IRR churn — {churned} zones migrate servers mid-trace "
        "(paper §4 long-TTL inconsistency cost)",
        ("Scheme",), CHURN_COLUMNS, rows,
    )


def _eligible_zone_count(built: BuiltHierarchy) -> int:
    count = 0
    for zone in built.tree.zones():
        if zone.name.depth() != 2:
            continue
        servers = built.tree.servers_for_zone(zone.name)
        if servers and all(s.zones_served() == (zone.name,) for s in servers):
            count += 1
    return count

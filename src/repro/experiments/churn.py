"""IRR-churn experiment: what long TTLs cost when zones change servers.

Paper §4 (Long TTL): "if the IRR changes at the ANs, the cached copy
will be out of date... The penalty paid for querying an obsolete
name-server is a longer resolution time.  [...] In the worst case, all
servers in the old IRR fail to respond and the parent zone must be
queried to reset the IRR."

This experiment makes the trade-off quantitative.  A set of zones
migrates to entirely new server sets mid-trace; we replay the same trace
under increasing IRR TTLs and report:

* upstream queries sent to an *obsolete server* (each pays a penalty);
* lookups that *failed* (should stay ~0 — the parent fallback works);
* mean resolution latency, where each query to a dead/lame server costs
  a timeout/RTT.

Expected shape: longer TTLs widen the inconsistency window and raise the
latency tail, but availability is unharmed — supporting the paper's
argument that the long-TTL downside is latency, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ResilienceConfig
from repro.experiments.harness import run_replay
from repro.experiments.table import ResultTable, percent
from repro.hierarchy.builder import BuiltHierarchy, HierarchyConfig, build_hierarchy
from repro.hierarchy.churn import ChurnSchedule, generate_churn
from repro.simulation.metrics import ReplayMetrics
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace

DAY = 86400.0


#: The churn table's columns; a row is one replay's :class:`ReplayMetrics`.
#: Without an attack, every failed upstream query went to a server that
#: no longer serves the zone: that count is the obsolete-server hits.
CHURN_COLUMNS = (
    ("SR failures", percent(lambda row: row.sr_failure_rate)),
    ("Mean latency", lambda row: f"{row.mean_latency * 1000:.1f} ms"),
    ("Obsolete-server hits",
     lambda row: row.cs_demand_failures + row.cs_renewal_failures),
    ("Stale answers", percent(lambda row: row.stale_answer_rate)),
    ("Upstream queries", lambda row: row.total_outgoing),
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


def churn_world(spec: ChurnSpec) -> tuple[BuiltHierarchy, Trace, ChurnSchedule]:
    """A freshly built hierarchy, its trace and its migrations.

    Churn mutates the tree, so every replay needs a world of its own;
    the same spec always builds the same one.  ``churn_fraction`` of
    eligible own-server SLDs migrate, uniformly over days 1-6.
    """
    hierarchy_config = spec.hierarchy or HierarchyConfig(
        num_tlds=8, num_slds=120, num_providers=3
    )
    workload_config = spec.workload or WorkloadConfig(
        duration_days=7.0, queries_per_day=2_000, num_clients=50
    )
    built = build_hierarchy(hierarchy_config, seed=spec.seed)
    trace = TraceGenerator(built.catalog, workload_config,
                           seed=spec.seed).generate("CHURN", stream=1)
    schedule = generate_churn(
        built,
        start=1 * DAY,
        end=6 * DAY,
        zone_count=max(
            1, int(_eligible_zone_count(built) * spec.churn_fraction)
        ),
        seed=spec.seed,
        decommission_old=spec.decommission_old,
    )
    return built, trace, schedule


def run(spec: ChurnSpec) -> ResultTable:
    """Compare IRR TTL settings under mid-trace server migrations."""
    schemes = [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh().with_label("refresh"),
        ResilienceConfig.refresh_long_ttl(3).with_label("refresh+ttl3d"),
        ResilienceConfig.refresh_long_ttl(7).with_label("refresh+ttl7d"),
        ResilienceConfig.swr(),
        ResilienceConfig.decoupled(7),
    ]
    rows: dict[str, ReplayMetrics] = {}
    for config in schemes:
        built, trace, schedule = churn_world(spec)
        rows[config.label] = run_replay(
            built, trace, config, seed=spec.seed, churn=schedule
        ).metrics
    return ResultTable(
        f"IRR churn — {len(schedule)} zones migrate servers mid-trace "
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

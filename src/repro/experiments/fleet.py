"""Fleet replay: several caching servers over one shared virtual time.

The paper's Table 1 lists six caching servers from five organisations;
its §6 maximum-damage discussion defines damage "across all caching
servers (or stub-resolvers)".  :func:`run_fleet_replay` models exactly
that: one engine, one network, one attack — many independent resolvers,
each replaying its own organisation's trace.

The result exposes both per-organisation and aggregate failure rates, so
fleet-level questions ("how many lookups did the Internet lose?") have a
first-class answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from repro.analysis.report import format_percent
from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.experiments.attack_grid import week_trace_names
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import FleetSpec, run_rows
from repro.experiments.scenarios import Scenario
from repro.experiments.table import ResultTable
from repro.hierarchy.builder import BuiltHierarchy
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics, WindowCounters
from repro.simulation.network import Network
from repro.workload.trace import Trace, TraceQuery


@dataclass
class FleetSummary:
    """One fleet replay: each organisation's record, keyed by trace name,
    plus the fleet-wide aggregates."""

    label: str
    members: dict[str, ReplayMetrics]

    def aggregate_sr_failure_rate(self) -> float:
        """Fleet-wide SR failure fraction inside the attack window."""
        windows = [m.window for m in self.members.values() if m.window is not None]
        queries = sum(window.sr_queries for window in windows)
        if queries == 0:
            return 0.0
        return self.total_failed_lookups() / queries

    def total_failed_lookups(self) -> int:
        """The §6 damage currency: failed lookups across the fleet."""
        return sum(
            member.window.sr_failures for member in self.members.values()
            if member.window is not None
        )

    def render(self) -> str:
        def rate(window: WindowCounters | None, metric: str) -> str:
            if window is None:
                return "-"
            return format_percent(getattr(window, metric))

        rows = {
            trace_name: (
                member.sr_queries,
                rate(member.window, "sr_failure_rate"),
                rate(member.window, "cs_failure_rate"),
            )
            for trace_name, member in self.members.items()
        }
        rows["fleet"] = (
            sum(member.sr_queries for member in self.members.values()),
            format_percent(self.aggregate_sr_failure_rate()),
            "-",
        )
        headers = ("Lookups", "SR failures (attack)", "CS failures (attack)")
        return ResultTable(
            f"Fleet replay — scheme: {self.label}", ("Organisation",),
            tuple((header, itemgetter(index))
                  for index, header in enumerate(headers)),
            rows,
        ).render()


def run_fleet_replay(
    built: BuiltHierarchy,
    traces: list[Trace],
    config: ResilienceConfig,
    attack: AttackSpec | None = None,
    seed: int = 0,
) -> FleetSummary:
    """Replay each trace through its own caching server, time-interleaved.

    All servers share the engine (so renewal timers and trace queries
    interleave correctly), the network, and the attack schedule; caches
    and metrics are private per server, exactly like independent
    organisations.
    """
    if not traces:
        raise ValueError("a fleet needs at least one trace")
    if len({trace.name for trace in traces}) < len(traces):
        raise ValueError("fleet traces must have distinct names")
    tree = built.tree
    saved_state = None
    if config.long_ttl is not None:
        saved_state = tree.capture_irr_state()
        tree.apply_long_ttl(config.long_ttl)
    try:
        return _run(built, traces, config, attack, seed)
    finally:
        if saved_state is not None:
            tree.restore_irr_state(saved_state)


def _run(
    built: BuiltHierarchy,
    traces: list[Trace],
    config: ResilienceConfig,
    attack: AttackSpec | None,
    seed: int,
) -> FleetSummary:
    engine = SimulationEngine()
    schedule = attack.build_schedule(built) if attack is not None else None
    network = Network(built.tree, attacks=schedule)

    members: dict[str, ReplayMetrics] = {}
    servers: list[CachingServer] = []
    for index, trace in enumerate(traces):
        metrics = members[trace.name] = ReplayMetrics(
            window=WindowCounters(attack.start, attack.end)
            if attack is not None else None
        )
        servers.append(CachingServer(
            root_hints=built.tree.root_hints(),
            network=network,
            clock=engine,
            config=config,
            metrics=metrics,
            seed=seed + index,
        ))

    # Interleave all traces by timestamp; each query goes to its owner.
    def tagged(
        index: int, trace: Trace
    ) -> Iterator[tuple[float, int, TraceQuery]]:
        for query in trace:
            yield (query.time, index, query)

    streams = [tagged(index, trace) for index, trace in enumerate(traces)]
    for time, index, query in heapq.merge(*streams):
        engine.advance_to(time)
        servers[index].handle_stub_query(query.qname, query.rrtype, time)
    engine.advance_to(max(trace.duration for trace in traces))

    return FleetSummary(label=config.label, members=members)


def fleet_attack_comparison(
    scenario: Scenario,
    schemes: list[ResilienceConfig] | None = None,
    attack_hours: float = 6.0,
    trace_limit: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> dict[str, FleetSummary]:
    """The standard fleet experiment: all organisations, per scheme.

    Each scheme's fleet replay is one job on the batch runner (a fleet
    shares an engine internally, so it cannot be split further); with
    several workers the schemes run concurrently.
    """
    schemes = schemes or [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh(),
        ResilienceConfig.combination(),
    ]
    trace_names = week_trace_names(scenario, trace_limit)
    attack = AttackSpec(start=scenario.attack_start,
                        duration=attack_hours * 3600.0)
    return run_rows(
        ((config.label, FleetSpec.for_scenario(
            scenario, trace_names, config, attack=attack, seed=seed,
        )) for config in schemes),
        workers=workers,
    )

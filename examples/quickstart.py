#!/usr/bin/env python3
"""Quickstart: build a DNS world, resolve names, survive an attack.

Runs in a few seconds::

    python examples/quickstart.py
"""

from repro import (
    AttackSpec,
    ResilienceConfig,
    RRType,
    Scale,
    make_scenario,
    run_replay,
)
from repro.core.caching_server import CachingServer
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network
from repro.simulation.metrics import ReplayMetrics


def explore_resolution() -> None:
    """Drive one caching server by hand and watch it work."""
    print("=== 1. A caching server resolving names ===")
    scenario = make_scenario(Scale.TINY)
    tree = scenario.built.tree

    engine = SimulationEngine()
    server = CachingServer(
        root_hints=tree.root_hints(),
        network=Network(tree),
        clock=engine,
        config=ResilienceConfig.refresh(),
        metrics=ReplayMetrics(),
    )

    # Pick a couple of real names from the synthetic catalog.
    zones = list(scenario.built.catalog)[:3]
    for index, zone in enumerate(zones):
        host = scenario.built.catalog[zone][0]
        resolution = server.handle_stub_query(host, RRType.A, float(index))
        answer = resolution.answer.records[0].data if resolution.answer else "-"
        print(f"  {host}  ->  {answer}   [{resolution.outcome.value}]")

    # A repeat query is served from cache.
    repeat = server.handle_stub_query(
        scenario.built.catalog[zones[0]][0], RRType.A, 10.0
    )
    print(f"  repeat query outcome: {repeat.outcome.value}")
    print(f"  zones with cached IRRs: {server.cached_zone_count(10.0)}")
    print()


def compare_schemes_under_attack() -> None:
    """The paper in one screen: replay a 7-day trace, attack on day 7."""
    print("=== 2. Root+TLD DDoS on day 7: who keeps resolving? ===")
    scenario = make_scenario(Scale.TINY)
    trace = scenario.trace("TRC1")
    attack = AttackSpec()  # 6 h attack on the root and every TLD

    schemes = [
        ("vanilla DNS", ResilienceConfig.vanilla()),
        ("TTL refresh", ResilienceConfig.refresh()),
        ("refresh + A-LFU renewal", ResilienceConfig.refresh_renew("a-lfu", 5)),
        ("refresh + 7-day IRR TTLs", ResilienceConfig.refresh_long_ttl(7)),
        ("combination (paper's pick)", ResilienceConfig.combination()),
    ]
    print(f"  trace: {len(trace):,} queries over 7 days; attack: 6 h\n")
    print(f"  {'scheme':<28} {'SR failures':>12} {'CS failures':>12}")
    for label, config in schemes:
        result = run_replay(scenario.built, trace, config, attack=attack)
        print(
            f"  {label:<28} {result.metrics.sr_attack_failure_rate:>11.1%} "
            f"{result.metrics.cs_attack_failure_rate:>11.1%}"
        )
    print()
    print("  The paper's claim: refresh+renewal (or long TTLs) improve")
    print("  availability during the attack by about an order of magnitude.")


if __name__ == "__main__":
    explore_resolution()
    compare_schemes_under_attack()

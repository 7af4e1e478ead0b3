"""Maximum-damage attack exploration (paper §6, "Discussion").

The paper *defines* the maximum-damage attack — the target set of a given
budget that maximises failed queries — and argues that finding it exactly
is impractical (it depends on every resolver's future queries and on
cascading IRR expiries).  It sketches one heuristic: count upcoming
queries per subtree and hit the zones with the heaviest subtrees.

This module implements that heuristic as an *extension experiment*: it
builds the greedy target list from the (oracle) trace window, then
compares its damage against the paper's root+TLD attack and a
random-target strawman, with and without the combination scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import ResilienceConfig
from repro.dns.name import Name, root_name
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.table import CS, SR, ResultTable, percent
from repro.workload.trace import Trace

HOUR = 3600.0


def upcoming_query_counts(
    trace: Trace, scenario: Scenario, start: float, end: float
) -> dict[Name, int]:
    """Queries in [start, end) that transit each zone's subtree.

    A query for ``www.cs.ucla.edu`` counts for ``cs.ucla.edu``,
    ``ucla.edu``, ``edu`` and the root: disabling any of them can break
    the resolution (the cascading-failure effect §6 describes).
    """
    tree = scenario.built.tree
    counts: dict[Name, int] = {}
    zone_chain_cache: dict[Name, tuple[Name, ...]] = {}
    for query in trace.slice_window(start, end):
        chain = zone_chain_cache.get(query.qname)
        if chain is None:
            enclosing = tree.enclosing_zone(query.qname).name
            chain = tuple(
                ancestor
                for ancestor in enclosing.ancestors()
                if tree.has_zone(ancestor)
            )
            zone_chain_cache[query.qname] = chain
        for zone in chain:
            counts[zone] = counts.get(zone, 0) + 1
    return counts


def greedy_targets(
    trace: Trace,
    scenario: Scenario,
    budget: int,
    start: float,
    end: float,
    include_root: bool = True,
) -> list[Name]:
    """The ``budget`` zones with the heaviest upcoming subtrees."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    counts = upcoming_query_counts(trace, scenario, start, end)
    candidates = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    targets: list[Name] = []
    for zone, _ in candidates:
        if zone == root_name() and not include_root:
            continue
        targets.append(zone)
        if len(targets) == budget:
            break
    return targets


def random_targets(
    scenario: Scenario, budget: int, seed: int = 0
) -> list[Name]:
    """A random zone set of the same budget (strawman baseline)."""
    rng = random.Random(seed)
    names = sorted(scenario.built.tree.zone_names())
    return rng.sample(names, min(budget, len(names)))


@dataclass(frozen=True)
class MaxDamageSpec:
    """Declarative max-damage request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    budget: int | None = None
    attack_hours: float = 6.0
    trace_name: str = "TRC1"


def run(spec: MaxDamageSpec) -> ResultTable:
    """Compare greedy / root+TLD / random targets, vanilla vs combination.

    ``budget`` defaults to the root+TLD set size so strategies compete on
    equal footing.  Rows are keyed ``(strategy, scheme)``.
    """
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    trace = scenario.trace(spec.trace_name)
    start = scenario.attack_start
    end = start + spec.attack_hours * HOUR
    tree = scenario.built.tree
    budget = spec.budget
    if budget is None:
        budget = 1 + len(tree.tld_names())

    strategies = {
        "greedy (oracle)": greedy_targets(trace, scenario, budget, start, end),
        "root+TLDs": [root_name(), *tree.tld_names()][:budget],
        "random": random_targets(scenario, budget),
    }
    schemes = [
        ("vanilla", ResilienceConfig.vanilla()),
        ("combination", ResilienceConfig.combination()),
    ]
    pairs = [
        ((strategy_name, scheme_name), ReplaySpec.for_scenario(
            scenario, spec.trace_name, config,
            attack=AttackSpec(start=start, duration=spec.attack_hours * HOUR,
                              targets=tuple(targets)),
        ))
        for strategy_name, targets in strategies.items()
        for scheme_name, config in schemes
    ]
    return ResultTable(
        f"Maximum-damage exploration (budget = {budget} zones)",
        ("Targets", "Scheme"),
        (("SR failures", percent(SR, 1)), ("CS failures", percent(CS, 1))),
        run_rows(pairs),
    )

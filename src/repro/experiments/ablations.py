"""Ablations and extension experiments beyond the paper's figures.

* :func:`mechanism_ablation` — decompose the combination scheme: vanilla
  → refresh-only → renew-only (no refresh) → refresh+renew → +long-TTL.
  The paper never isolates renew-without-refresh; this fills that gap.
* :func:`stale_comparison` — the Ballani & Francis serve-stale comparator
  from related work (§7) against the paper's schemes.
* :func:`other_attack_classes` — the two §6 attack classes the paper
  discusses but does not simulate: attacking one popular SLD, and
  attacking a DNS-hosting provider.
* :func:`scale_sensitivity` — verifies DESIGN.md §6's claim that failure
  *rates* are scale-stable (TINY vs the requested scale).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ResilienceConfig, RetryPolicy
from repro.dns.name import Name
from repro.experiments.harness import AttackSpec
from repro.experiments.max_damage import upcoming_query_counts
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.table import CS, SR, ResultTable, percent

HOUR = 3600.0

#: The columns every ablation table shows, one replay per row.
ABLATION_COLUMNS = (
    ("SR failures", percent(SR)),
    ("CS failures", percent(CS)),
    ("Messages out", lambda record: f"{record.total_outgoing:,}"),
)


def _run_schemes(
    scenario: Scenario,
    schemes: list[tuple[str, ResilienceConfig]],
    title: str,
    attack_hours: float,
    trace_name: str = "TRC1",
    seed: int = 0,
) -> ResultTable:
    """One replay per scheme under the standard root+TLD attack."""
    attack = AttackSpec(start=scenario.attack_start,
                        duration=attack_hours * HOUR)
    pairs = [
        (label, ReplaySpec.for_scenario(scenario, trace_name, config,
                                        attack=attack, seed=seed))
        for label, config in schemes
    ]
    return ResultTable(title, ("Scheme",), ABLATION_COLUMNS, run_rows(pairs))


def mechanism_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> ResultTable:
    """Each mechanism in isolation, then stacked."""
    renew_only = ResilienceConfig(
        ttl_refresh=False,
        renewal_policy=ResilienceConfig.refresh_renew("a-lfu", 3).renewal_policy,
        label="renew-only(a-lfu3)",
    )
    schemes = [
        ("vanilla", ResilienceConfig.vanilla()),
        ("refresh only", ResilienceConfig.refresh()),
        ("renew only (A-LFU 3)", renew_only),
        ("refresh + renew", ResilienceConfig.refresh_renew("a-lfu", 3)),
        ("long-TTL 3d only", replace(ResilienceConfig.refresh_long_ttl(3),
                                     ttl_refresh=False, label="ttl3d-only")),
        ("combination", ResilienceConfig.combination()),
    ]
    return _run_schemes(
        scenario, schemes,
        "Ablation — mechanisms in isolation (6 h root+TLD attack)",
        attack_hours, seed=seed,
    )


def stale_comparison(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> ResultTable:
    """Serve-stale (related-work comparator) vs the paper's schemes."""
    schemes = [
        ("vanilla", ResilienceConfig.vanilla()),
        ("serve-stale", ResilienceConfig.stale_serving()),
        ("refresh + A-LFU 3", ResilienceConfig.refresh_renew("a-lfu", 3)),
        ("combination", ResilienceConfig.combination()),
    ]
    return _run_schemes(
        scenario, schemes,
        "Comparator — serve-stale (Ballani'06) vs paper schemes",
        attack_hours, seed=seed,
    )


def other_attack_classes(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> ResultTable:
    """§6's other attacks: one popular SLD; one DNS-hosting provider."""
    trace = scenario.trace("TRC1")
    start = scenario.attack_start
    end = start + attack_hours * HOUR
    counts = upcoming_query_counts(trace, scenario, start, end)

    def busiest(candidates: list[Name]) -> Name:
        return max(candidates, key=lambda zone: counts.get(zone, 0))

    slds = [
        zone.name
        for zone in scenario.built.tree.zones()
        if zone.name.depth() == 2
        and zone.name not in scenario.built.provider_zones
    ]
    target_sld = busiest(slds)
    target_provider = busiest(scenario.built.provider_zones)

    pairs = [
        (f"{label} / {scheme_label}", ReplaySpec.for_scenario(
            scenario, "TRC1", config, seed=seed,
            attack=AttackSpec(start=start, duration=attack_hours * HOUR,
                              targets=targets),
        ))
        for label, targets in (
            (f"popular SLD ({target_sld})", (target_sld,)),
            (f"provider ({target_provider})", (target_provider,)),
        )
        for scheme_label, config in (
            ("vanilla", ResilienceConfig.vanilla()),
            ("combination", ResilienceConfig.combination()),
        )
    ]
    return ResultTable(
        "Other attack classes (paper §6): single SLD / provider",
        ("Scheme",), ABLATION_COLUMNS, run_rows(pairs),
    )


def capacity_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> ResultTable:
    """Bounded-cache sensitivity: how much memory do the schemes need?

    The paper (§5.2.2) argues the memory overhead is negligible for
    production caches; this ablation probes the other direction — when
    the cache is too small for the IRR working set, LRU eviction starts
    undoing the renewal/long-TTL work and resilience decays gracefully.
    Capacities are expressed relative to the zone count.
    """
    zone_count = scenario.built.tree.zone_count()
    base = ResilienceConfig.combination()
    schemes = [
        ("combination / unbounded", base),
        ("combination / 4x zones",
         replace(base, cache_capacity=4 * zone_count,
                 label="combo-cap4x")),
        ("combination / 1x zones",
         replace(base, cache_capacity=zone_count, label="combo-cap1x")),
        ("combination / 0.25x zones",
         replace(base, cache_capacity=max(8, zone_count // 4),
                 label="combo-cap025x")),
        ("vanilla / unbounded", ResilienceConfig.vanilla()),
    ]
    return _run_schemes(
        scenario, schemes,
        "Ablation — cache capacity vs resilience (6 h attack)",
        attack_hours, seed=seed,
    )


def holddown_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> ResultTable:
    """Dead-server hold-down: timeout-storm damping during the attack.

    Hold-down does not change *whether* a lookup can succeed (the data
    is still unreachable), but it stops the resolver from re-timing-out
    on known-dead servers — visible as far fewer failed CS queries.
    One try per server, sidelined for 10 minutes after its first failure.
    """
    holddown = RetryPolicy(max_tries=1, holddown_failures=1, holddown=600.0)
    schemes = [
        ("vanilla", ResilienceConfig.vanilla()),
        ("vanilla + holddown 10m",
         replace(ResilienceConfig.vanilla(), retry_policy=holddown,
                 label="vanilla+holddown")),
        ("refresh + holddown 10m",
         replace(ResilienceConfig.refresh(), retry_policy=holddown,
                 label="refresh+holddown")),
        ("refresh + fast-select",
         replace(ResilienceConfig.refresh(), prefer_fast_servers=True,
                 label="refresh+fastselect")),
    ]
    return _run_schemes(
        scenario, schemes,
        "Ablation — dead-server hold-down & RTT selection (6 h attack)",
        attack_hours, seed=seed,
    )


def scale_sensitivity(
    scales: tuple[Scale, ...] = (Scale.TINY, Scale.SMALL),
    attack_hours: float = 6.0,
    seed: int = 0,
) -> ResultTable:
    """The same schemes at multiple scales; rates should be comparable.

    Rows are keyed ``(scale, scheme)``.
    """
    schemes = [
        ("vanilla", ResilienceConfig.vanilla()),
        ("refresh", ResilienceConfig.refresh()),
        ("combination", ResilienceConfig.combination()),
    ]
    pairs: list[tuple[tuple[str, str], ReplaySpec]] = []
    for scale in scales:
        scenario = make_scenario(scale)
        attack = AttackSpec(start=scenario.attack_start,
                            duration=attack_hours * HOUR)
        pairs.extend(
            ((scale.value, label),
             ReplaySpec.for_scenario(scenario, "TRC1", config, attack=attack,
                                     seed=seed))
            for label, config in schemes
        )
    return ResultTable(
        "Scale sensitivity — failure rates across scales", ("Scale", "Scheme"),
        (("SR failures", percent(SR)), ("CS failures", percent(CS))),
        run_rows(pairs),
    )

#!/usr/bin/env python3
"""Attack-resilience study: the paper's Figures 4/5/9 scenario in one run.

Replays the TRC1 trace under root+TLD attacks of increasing duration and
prints the failure grid for vanilla DNS, TTL refresh, and the strongest
renewal policy — the heart of the paper's evaluation.

Usage::

    python examples/attack_resilience.py            # tiny scale, seconds
    REPRO_SCALE=small python examples/attack_resilience.py
"""

from repro import AttackSpec, ResilienceConfig, Scale, make_scenario, run_replay

HOUR = 3600.0
DURATIONS_HOURS = (3, 6, 12, 24)

SCHEMES = [
    ("vanilla", ResilienceConfig.vanilla()),
    ("refresh", ResilienceConfig.refresh()),
    ("refresh + A-LFU(5)", ResilienceConfig.refresh_renew("a-lfu", 5)),
    ("combination", ResilienceConfig.combination()),
]


def main() -> None:
    scale = Scale.from_env(default=Scale.TINY)
    scenario = make_scenario(scale)
    trace = scenario.trace("TRC1")
    print(f"scale={scale.value}: {scenario.built.tree.zone_count():,} zones, "
          f"{len(trace):,} queries over 7 days")
    print("attack: root + all TLDs blocked starting at the beginning of day 7\n")

    header = f"{'scheme':<20}" + "".join(f"{h:>3} h attack" + "  " for h in DURATIONS_HOURS)
    for metric in ("SR", "CS"):
        print(f"--- failed queries from {'stub resolvers' if metric == 'SR' else 'the caching server'} ---")
        print(header)
        for label, config in SCHEMES:
            cells = []
            for hours in DURATIONS_HOURS:
                attack = AttackSpec(start=scenario.attack_start,
                                    duration=hours * HOUR)
                result = run_replay(scenario.built, trace, config, attack=attack)
                rate = (result.metrics.sr_attack_failure_rate if metric == "SR"
                        else result.metrics.cs_attack_failure_rate)
                cells.append(f"{rate:>10.1%}")
            print(f"{label:<20}" + "  ".join(cells))
        print()

    print("Expected shapes (paper): failures grow with duration; refresh")
    print("halves them; renewal/combination cut them by ~10x.")


if __name__ == "__main__":
    main()

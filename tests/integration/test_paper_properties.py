"""End-to-end checks of the paper's qualitative claims at test scale.

Each test replays a full 7-day trace through the simulator and asserts a
*shape* the paper reports — not absolute numbers (those depend on the
testbed), but who wins, orderings and rough factors.  The bench suite
reproduces the same shapes at larger scale.
"""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, make_scenario

HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


@pytest.fixture(scope="module")
def trace(scenario):
    return scenario.trace("TRC1")


def attack(hours=6.0):
    return AttackSpec(duration=hours * HOUR)


def sr_rate(scenario, trace, config, hours=6.0):
    result = run_replay(scenario.built, trace, config, attack=attack(hours))
    return result.metrics.sr_attack_failure_rate


class TestHeadlineClaims:
    def test_vanilla_suffers_badly_under_attack(self, scenario, trace):
        rate = sr_rate(scenario, trace, ResilienceConfig.vanilla())
        assert rate > 0.25  # a large share of lookups fail

    def test_refresh_cuts_failures_substantially(self, scenario, trace):
        # Paper: "at least 5_% lower compared to the current system" in
        # most cases.  Our synthetic workload is less skewed than the
        # 2006 university traces, and with RFC 2308 negative answers
        # (SOA-only authority) fewer responses carry refresh vehicles,
        # so we require a solid cut rather than a full halving; the
        # 24 h column of the figure5 artifact shows the gap widening with
        # duration exactly as the paper's figures do.
        vanilla = sr_rate(scenario, trace, ResilienceConfig.vanilla())
        refresh = sr_rate(scenario, trace, ResilienceConfig.refresh())
        assert refresh < vanilla * 0.85
        long_attack_vanilla = sr_rate(scenario, trace,
                                      ResilienceConfig.vanilla(), hours=24)
        long_attack_refresh = sr_rate(scenario, trace,
                                      ResilienceConfig.refresh(), hours=24)
        assert long_attack_refresh < long_attack_vanilla * 0.75

    def test_best_renewal_is_order_of_magnitude_better(self, scenario, trace):
        vanilla = sr_rate(scenario, trace, ResilienceConfig.vanilla())
        best = sr_rate(scenario, trace, ResilienceConfig.refresh_renew("a-lfu", 5))
        assert best < vanilla / 8

    def test_long_ttl_matches_best_renewal(self, scenario, trace):
        renew = sr_rate(scenario, trace, ResilienceConfig.refresh_renew("a-lfu", 5))
        long_ttl = sr_rate(scenario, trace, ResilienceConfig.refresh_long_ttl(7))
        assert abs(long_ttl - renew) < 0.05

    def test_combination_reaches_best_resilience(self, scenario, trace):
        vanilla = sr_rate(scenario, trace, ResilienceConfig.vanilla())
        combo = sr_rate(scenario, trace, ResilienceConfig.combination())
        assert combo < vanilla / 8

    def test_failures_increase_with_attack_duration(self, scenario, trace):
        short = sr_rate(scenario, trace, ResilienceConfig.vanilla(), hours=3)
        long = sr_rate(scenario, trace, ResilienceConfig.vanilla(), hours=24)
        assert long > short

    def test_cs_failures_exceed_sr_failures(self, scenario, trace):
        # SR queries can still be served from cache during the attack;
        # every CS query must touch the infrastructure (paper §5.1.1).
        result = run_replay(scenario.built, trace, ResilienceConfig.vanilla(),
                            attack=attack())
        metrics = result.metrics
        assert metrics.cs_attack_failure_rate > metrics.sr_attack_failure_rate


class TestPolicyOrdering:
    @pytest.fixture(scope="class")
    def rates(self, scenario, trace):
        return {
            policy: sr_rate(
                scenario, trace, ResilienceConfig.refresh_renew(policy, 3)
            )
            for policy in ("lru", "lfu", "a-lru", "a-lfu")
        }

    def test_adaptive_beats_plain(self, rates):
        # Paper: LRU <= LFU <= A-LRU <= A-LFU (in resilience).
        assert rates["a-lru"] <= rates["lru"] + 0.01
        assert rates["a-lfu"] <= rates["lfu"] + 0.01

    def test_all_beat_refresh_only(self, scenario, trace, rates):
        refresh = sr_rate(scenario, trace, ResilienceConfig.refresh())
        for policy, rate in rates.items():
            assert rate <= refresh + 0.01, policy

    def test_higher_credit_never_hurts(self, scenario, trace):
        low = sr_rate(scenario, trace, ResilienceConfig.refresh_renew("lru", 1))
        high = sr_rate(scenario, trace, ResilienceConfig.refresh_renew("lru", 5))
        assert high <= low + 0.01


class TestLongTtlSaturation:
    def test_five_days_close_to_seven(self, scenario, trace):
        # Paper Figure 10: 5-day TTL ≈ 7-day TTL (the gap CDF saturates).
        five = sr_rate(scenario, trace, ResilienceConfig.refresh_long_ttl(5))
        seven = sr_rate(scenario, trace, ResilienceConfig.refresh_long_ttl(7))
        assert abs(five - seven) < 0.02

    def test_combination_saturates_at_three_days(self, scenario, trace):
        # Paper Figure 11: with A-LFU renewal, 3 days is enough.
        three = sr_rate(scenario, trace, ResilienceConfig.combination(days=3))
        seven = sr_rate(scenario, trace, ResilienceConfig.combination(days=7))
        assert abs(three - seven) < 0.02


class TestOverheadClaims:
    @pytest.fixture(scope="class")
    def baseline(self, scenario, trace):
        return run_replay(scenario.built, trace, ResilienceConfig.vanilla())

    def overhead(self, scenario, trace, config, baseline):
        result = run_replay(scenario.built, trace, config)
        return result.metrics.message_overhead_vs(baseline.metrics)

    def test_refresh_reduces_messages(self, scenario, trace, baseline):
        assert self.overhead(scenario, trace, ResilienceConfig.refresh(),
                             baseline) < 0.0

    def test_long_ttl_reduces_messages(self, scenario, trace, baseline):
        assert self.overhead(
            scenario, trace, ResilienceConfig.refresh_long_ttl(7), baseline
        ) < 0.0

    def test_adaptive_renewal_costs_most(self, scenario, trace, baseline):
        plain = self.overhead(
            scenario, trace, ResilienceConfig.refresh_renew("lfu", 3), baseline
        )
        adaptive = self.overhead(
            scenario, trace, ResilienceConfig.refresh_renew("a-lfu", 3), baseline
        )
        assert adaptive > plain > 0.0

    def test_combination_cheaper_than_adaptive_renewal(self, scenario, trace,
                                                       baseline):
        adaptive = self.overhead(
            scenario, trace, ResilienceConfig.refresh_renew("a-lfu", 3), baseline
        )
        combo = self.overhead(
            scenario, trace, ResilienceConfig.combination(), baseline
        )
        # Long TTLs slash the renewal refetch rate (paper §5.2.1).
        assert combo < adaptive / 2

    def test_memory_overhead_within_small_factor(self, scenario, trace):
        vanilla = run_replay(scenario.built, trace, ResilienceConfig.vanilla(),
                             memory_sample_interval=12 * HOUR)
        combo = run_replay(scenario.built, trace, ResilienceConfig.combination(),
                           memory_sample_interval=12 * HOUR)

        def steady(result):
            tail = [s.records_cached for s in result.metrics.memory_samples
                    if s.time >= 2 * 86400.0]
            return sum(tail) / len(tail)

        ratio = steady(combo) / steady(vanilla)
        # Paper Figure 12: enhanced schemes cache ~2-3x more objects.
        assert 1.0 <= ratio < 6.0

"""The artifact bench: every paper table and figure, and every extension.

``ARTIFACTS`` is a table of (artifact name, runner, shape check) rows.
Each row regenerates one artifact, writes its text to
``benchmarks/results/<name>.txt`` and asserts the paper's shape on the
result.  Run it with ``REPRO_SCALE=tiny`` to regenerate the committed
TINY reference set; ``git diff benchmarks/results/`` is then empty.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    ablations, churn, dnssec, figures, fleet, latency, max_damage,
)
from repro.experiments.model_validation import model_validation
from repro.experiments.multiseed import _multiseed_experiment, seed_spread
from repro.experiments.scenarios import Scale
from repro.experiments.table import SR
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig

RESULTS_DIR = Path(__file__).parent / "results"

TRACE_LIMIT = 3  # renewal grids are the costliest; 3 traces by default


def check_table1(result, scenario):
    # Sanity: caching keeps outbound traffic in the order of inbound.
    for row in result.rows.values():
        assert row.requests_out is not None
        assert row.requests_out < 1.5 * row.requests_in


def check_figure3(result, scenario):
    # Paper: "in absolute time almost all gaps are less than 5 days".
    assert result.fraction_under_5_days > 0.95
    # Relative gaps vary widely: a visible mass both below and above 1 TTL.
    below_one = result.cdf_fraction.probability_at_or_below(1.0)
    assert 0.1 < below_one < 0.95


def check_figure4(grid, scenario):
    # Failures grow with attack duration...
    assert grid.column_mean_sr("24 h") > grid.column_mean_sr("3 h")
    # ...and the attack visibly hurts the current DNS.
    assert grid.column_mean_sr("6 h") > 0.15
    # CS failures exceed SR failures (caches still answer stubs).
    assert grid.column_mean_cs("6 h") > grid.column_mean_sr("6 h")


def check_figure5(grid, scenario):
    vanilla = figures.figure4(scenario)
    # Paper: refresh cuts the failure percentage substantially relative
    # to Figure 4, with the gap widening for longer attacks.  Every cell
    # must improve; the 24 h column must improve by >= 25 % relative.
    for column in grid.headers:
        for trace in grid.rows:
            assert SR(grid.cell(trace, column)) < \
                SR(vanilla.cell(trace, column))
    assert grid.column_mean_sr("24 h") < 0.75 * vanilla.column_mean_sr("24 h")
    assert grid.column_mean_sr("6 h") < vanilla.column_mean_sr("6 h")


def check_figure6(grid, scenario):
    assert grid.column_mean_sr("LRU 5") <= grid.column_mean_sr("LRU 1") + 0.01
    assert grid.column_mean_sr("LRU 3") < grid.column_mean_sr("DNS")


def check_figure7(grid, scenario):
    assert grid.column_mean_sr("LFU 5") <= grid.column_mean_sr("LFU 1") + 0.01
    assert grid.column_mean_sr("LFU 3") < grid.column_mean_sr("DNS")


def check_figure8(grid, scenario):
    # Adaptive LRU should beat plain behaviour decisively vs vanilla.
    assert grid.column_mean_sr("A-LRU 3") < 0.5 * grid.column_mean_sr("DNS")


def check_figure9(grid, scenario):
    # A-LFU is the paper's best renewal policy: SR failures < 2.5 %, CS
    # failures < 10 %, an order of magnitude better than vanilla DNS.
    vanilla = grid.column_mean_sr("DNS")
    best = grid.column_mean_sr("A-LFU 5")
    assert best < vanilla / 8
    assert best < 0.025
    assert grid.column_mean_cs("A-LFU 5") < 0.10


def check_figure10(grid, scenario):
    # Longer TTLs help monotonically...
    assert grid.column_mean_sr("7 Day TTL") <= grid.column_mean_sr("1 Day TTL") + 0.01
    # ...but 5 days is already nearly as good as 7 (gap CDF saturation).
    five = grid.column_mean_sr("5 Day TTL")
    seven = grid.column_mean_sr("7 Day TTL")
    assert abs(five - seven) < 0.02
    # And the scheme crushes vanilla.
    assert grid.column_mean_sr("5 Day TTL") < 0.5 * grid.column_mean_sr("DNS")


def check_figure11(grid, scenario):
    # Paper: with renewal on top, a 3-day TTL already reaches the maximum
    # resilience; longer TTLs add nothing.
    three = grid.column_mean_sr("3 Day TTL")
    seven = grid.column_mean_sr("7 Day TTL")
    assert abs(three - seven) < 0.02
    assert three < grid.column_mean_sr("DNS") / 5


def check_table2(result, scenario):
    mean = {label: message for label, (message, _) in result.rows.items()}
    # Paper shapes: refresh and long-TTL *reduce* traffic; renewal adds
    # traffic; adaptive renewal adds the most; the combination is cheap.
    assert mean["Refresh"] < 0.0
    assert mean["Long-TTL"] < 0.0
    assert mean["LRU"] > 0.0 and mean["LFU"] > 0.0
    assert mean["A-LFU"] > mean["LFU"]
    assert mean["A-LRU"] > mean["LRU"]
    assert mean["Combination"] < mean["A-LFU"] / 2


def figure12_text(result):
    # Also dump the raw zone/record series for plotting.
    series_lines = []
    for label, series in result.rows.items():
        points = ", ".join(
            f"({day:.2f}, {records})"
            for day, records in series.records_series()[::4]
        )
        series_lines.append(f"{label} records(day): {points}")
    return result.render() + "\n\n" + "\n".join(series_lines)


def check_figure12(result, scenario):
    # Paper shapes: enhanced schemes cache ~2-3x the objects of vanilla
    # DNS, and the absolute footprint stays tiny (tens of MB at paper
    # scale; well under that here).
    baseline = result.row("DNS")
    for label, series in result.rows.items():
        if label == "DNS":
            continue
        ratio = series.occupancy_ratio_vs(baseline)
        assert 1.0 <= ratio < 8.0, (label, ratio)
    combo = result.row("Combination").occupancy_ratio_vs(baseline)
    assert combo > 1.2


def check_mechanisms(result, scenario):
    assert SR(result.row("combination")) <= SR(result.row("vanilla"))
    assert SR(result.row("refresh + renew")) <= SR(result.row("refresh only"))


def check_stale_comparator(result, scenario):
    assert SR(result.row("serve-stale")) <= SR(result.row("vanilla"))


def check_other_attack_classes(result, scenario):
    # Single-zone attacks have bounded blast radius vs root+TLD attacks.
    for label, summary in result.rows.items():
        assert SR(summary) < 0.35, label


def check_capacity(result, scenario):
    # Generous caches preserve the combination's resilience; starved
    # caches thrash back toward (or past) vanilla levels.
    assert SR(result.row("combination / 4x zones")) <= \
        SR(result.row("combination / 1x zones")) + 0.01
    assert SR(result.row("combination / 1x zones")) <= \
        SR(result.row("combination / 0.25x zones")) + 0.01


def check_holddown(result, scenario):
    # Hold-down slashes failed-query volume without changing outcomes
    # much: compare total messages, not failure rates.
    rows = {label: s.total_outgoing for label, s in result.rows.items()}
    assert rows["vanilla + holddown 10m"] < rows["vanilla"]


def check_max_damage(result, scenario):
    assert SR(result.row(("greedy (oracle)", "vanilla"))) >= \
        SR(result.row(("random", "vanilla")))


def check_scale_sensitivity(result, scenario):
    # Vanilla failure rates should be in the same ballpark across scales.
    vanilla = [SR(s) for (_, scheme), s in result.rows.items()
               if scheme == "vanilla"]
    assert max(vanilla) < 3.5 * min(vanilla)


def check_churn(result, scenario):
    # Paper §4: long TTLs widen the obsolete-IRR window (a latency
    # penalty), not the failure rate.
    for label, row in result.rows.items():
        assert row.sr_failure_rate < 0.005, label

    def obsolete_server_hits(label):
        row = result.row(label)
        return row.cs_demand_failures + row.cs_renewal_failures

    assert obsolete_server_hits("refresh+ttl7d") >= \
        obsolete_server_hits("vanilla")


def check_latency(result, scenario):
    # Refresh/long-TTL improve response time by avoiding tree walks.
    assert result.row("refresh+ttl7d").mean_latency <= \
        result.row("vanilla").mean_latency
    assert result.row("combination").cs_queries_per_lookup <= \
        result.row("vanilla").cs_queries_per_lookup


def check_dnssec(result, scenario):
    # Validation amplifies the root+TLD attack against the unmodified
    # DNS; the combination scheme, covering DNSSEC IRRs, neutralises it.
    assert SR(result.row("vanilla+dnssec")) > SR(result.row("vanilla"))
    assert SR(result.row("combo+a-lfu3+ttl3d+dnssec")) < \
        SR(result.row("vanilla+dnssec")) / 5


def check_fleet(results, scenario):
    # §6's damage currency: failed lookups across all organisations.
    vanilla = results["vanilla"].row(fleet.FLEET)
    combo = results["combo+a-lfu3+ttl3d"].row(fleet.FLEET)
    assert fleet.aggregate_sr_failure_rate(combo) < \
        fleet.aggregate_sr_failure_rate(vanilla) / 5
    assert fleet.total_failed_lookups(combo) < \
        fleet.total_failed_lookups(vanilla)


def check_model_validation(result, scenario):
    # The renewal-theory model agrees within tens of percent and keeps
    # the scheme ordering.
    for row in result.rows.values():
        assert row.relative_error < 0.35, row.scheme
    predicted = [row.predicted for row in result.rows.values()]
    assert predicted == sorted(predicted)


def check_multiseed(result, scenario):
    vanilla = seed_spread(result.row("vanilla"))
    combo = seed_spread(result.row("combo+a-lfu3+ttl3d"))
    # Ordering robust across seeds: separated by well over the spreads.
    assert combo.mean + 2 * combo.std < vanilla.mean - 2 * vanilla.std


ARTIFACTS = [
    ("table1", figures.table1, check_table1),
    ("figure3", figures.figure3, check_figure3),
    ("figure4", figures.figure4, check_figure4),
    ("figure5", figures.figure5, check_figure5),
    ("figure6", lambda s: figures.figure6(s, trace_limit=TRACE_LIMIT),
     check_figure6),
    ("figure7", lambda s: figures.figure7(s, trace_limit=TRACE_LIMIT),
     check_figure7),
    ("figure8", lambda s: figures.figure8(s, trace_limit=TRACE_LIMIT),
     check_figure8),
    ("figure9", lambda s: figures.figure9(s, trace_limit=TRACE_LIMIT),
     check_figure9),
    ("figure10", figures.figure10, check_figure10),
    ("figure11", lambda s: figures.figure11(s, trace_limit=TRACE_LIMIT),
     check_figure11),
    ("table2", figures.table2, check_table2),
    ("figure12", figures.figure12, check_figure12, figure12_text),
    ("ablation_mechanisms", ablations.mechanism_ablation, check_mechanisms),
    ("comparator_serve_stale", ablations.stale_comparison,
     check_stale_comparator),
    ("other_attack_classes", ablations.other_attack_classes,
     check_other_attack_classes),
    ("ablation_capacity", ablations.capacity_ablation, check_capacity),
    ("ablation_holddown", ablations.holddown_ablation, check_holddown),
    ("max_damage", lambda s: max_damage.run(max_damage.MaxDamageSpec(
        scale=s.scale, seed=s.seed)), check_max_damage),
    ("scale_sensitivity",
     lambda _: ablations.scale_sensitivity(scales=(Scale.TINY, Scale.SMALL)),
     check_scale_sensitivity),
    ("churn", lambda _: churn.run(churn.ChurnSpec(
        hierarchy=HierarchyConfig(num_tlds=10, num_slds=300, num_providers=4),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=6_000,
                                num_clients=120),
        churn_fraction=0.25,
    )), check_churn),
    ("latency", lambda s: latency.run(latency.LatencySpec(
        scale=s.scale, seed=s.seed)), check_latency),
    ("dnssec", lambda _: dnssec.run(dnssec.DnssecSpec(
        hierarchy=HierarchyConfig(num_tlds=12, num_slds=400, num_providers=4,
                                  dnssec_fraction=1.0),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=6_000,
                                num_clients=150),
    )), check_dnssec),
    ("fleet", lambda s: fleet.fleet_attack_comparison(s, trace_limit=3),
     check_fleet,
     lambda results: "\n\n".join(r.render() for r in results.values())),
    ("model_validation", model_validation, check_model_validation),
    ("multiseed", lambda s: _multiseed_experiment(s, seeds=(0, 1, 2)),
     check_multiseed),
]


@pytest.mark.parametrize(
    "name, run, check, text",
    [pytest.param(name, run, check,
                  rest[0] if rest else (lambda result: result.render()),
                  id=name)
     for name, run, check, *rest in ARTIFACTS],
)
def bench_artifact(name, run, check, text, run_once, scenario):
    result = run_once(run, scenario)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text(result) + "\n", encoding="utf-8")
    print(f"\n{text(result)}\n[artifact written to {path}]")
    check(result, scenario)

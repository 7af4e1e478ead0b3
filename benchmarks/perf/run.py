"""The perf ledger's command line.

Three forms, all run from the repository root::

    python3 -m benchmarks.perf.run --workload NAME --seed N --seconds S --trace 0|1
    python3 -m benchmarks.perf.run ledger [--workload NAME ...] [--seed N]
            [--seconds S] [--reps N] [--smoke] [--out FILE]
    python3 -m benchmarks.perf.run compare A.json B.json

The first is ONE run of one workload in this process — the form
``BENCHMARK.json`` names.  It prints every metric by name with its unit
and, as its last line, the result object the contract asks for
(``--trace 0``: the gated end-to-end metrics; ``--trace 1``: the
per-layer table).  ``ledger`` is the whole ledger: every workload,
``--reps`` untraced runs on consecutive seeds plus one traced run, each
in a fresh subprocess of the first form, printed as tables and written
to ``--out`` with the machine's fingerprint.  ``compare`` holds two such
files against the bounds.

README.md in this directory defines every metric and workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: name -> (unit, better, bound).  A bound of 0.0 means *exact*: the
#: value is simulated or a failure count, and any worsening is a failure.
#: The timing bounds sit at the contract's cap of 25 %: sets of ten runs of
#: one commit spread up to 12 % on this box (README, "What a run on this box
#: printed"), which nothing tighter holds with room to spare; the issue
#: hoped for 10/10/15 % on qps, p50 and p90.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "qps": ("1/s", "higher", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "p90_ms": ("ms", "lower", 0.25),
    "p99_ms": ("ms", "lower", 0.25),
    "failed_share": ("fraction", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "sim_sr_fail_pct": ("%", "lower", 0.0),
    "sim_cs_per_sr": ("ratio", "lower", 0.0),
}
EXACT = tuple(name for name, spec in END_TO_END.items() if spec[2] == 0.0)
#: The ``end_to_end`` list of BENCHMARK.json: defined on every workload, never
#: zero, and steady within their bound in every set of ten runs.  ``p99_ms``
#: is not: the box's slow bursts land in the tail, which no scaling by a mean
#: speed takes out (the warmed server: 7 to 20 % between sets of one commit).
GATED = tuple(name for name in END_TO_END if name not in (*EXACT, "p99_ms"))

#: name -> (unit, better).  The end-to-end metrics that are not gated ride
#: along so the contract's traced run carries them too.
PER_LAYER: dict[str, tuple[str, str]] = {
    "workload.generate_s": ("s", "lower"),
    "hierarchy.build_s": ("s", "lower"),
    "harness.self_ns_per_sq": ("ns", "lower"),
    "harness.cpu_s": ("s", "lower"),
    "engine.advance_to.calls_per_sq": ("count", "lower"),
    "engine.advance_to.self_ns_per_sq": ("ns", "lower"),
    "engine.events_per_sq": ("count", "lower"),
    "renewal.self_ns_per_sq": ("ns", "lower"),
    "renewal.queries_per_sq": ("count", "lower"),
    "renewal.failed_ratio": ("ratio", "lower"),
    "cache.get.calls_per_sq": ("count", "lower"),
    "cache.get.self_ns_per_sq": ("ns", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.put.calls_per_sq": ("count", "lower"),
    "cache.put.self_ns_per_sq": ("ns", "lower"),
    "cache.best_zone_for.self_ns_per_sq": ("ns", "lower"),
    "cache.entries_end": ("count", "lower"),
    "resolver.self_ns_per_sq": ("ns", "lower"),
    "resolver.upstream_per_sq": ("count", "lower"),
    "resolver.sr_failures": ("count", "lower"),
    "network.query.calls_per_sq": ("count", "lower"),
    "network.query.self_ns_per_sq": ("ns", "lower"),
    "network.fail_ratio": ("ratio", "lower"),
    "authserver.respond.self_ns_per_sq": ("ns", "lower"),
    "metrics.record_exchange.self_ns_per_sq": ("ns", "lower"),
    "wire.decode_query_ns": ("ns", "lower"),
    "wire.encode_response_ns": ("ns", "lower"),
    "wire.encode_query_ns": ("ns", "lower"),
    "wire.decode_message_ns": ("ns", "lower"),
    "frontend.hop_us": ("us", "lower"),
    "frontend.resolve_us": ("us", "lower"),
    "frontend.other_us": ("us", "lower"),
    "frontend.singleflight_hits": ("count", "higher"),
    "frontend.stale_served": ("count", "higher"),
    "frontend.servfail": ("count", "lower"),
    "frontend.formerr": ("count", "lower"),
    "frontend.truncated": ("count", "lower"),
    "driver.late_p50_ms": ("ms", "lower"),
    "driver.late_p99_ms": ("ms", "lower"),
    "driver.open_p99_ms": ("ms", "lower"),
    "driver.max_ok_qps": ("1/s", "higher"),
    "driver.timeouts": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "ledger.coverage": ("ratio", "higher"),
    "p99_ms": ("ms", "lower"),
    "failed_share": ("fraction", "lower"),
    "sim_sr_fail_pct": ("%", "lower"),
    "sim_cs_per_sr": ("ratio", "lower"),
}

DEFAULT_SECONDS = 12
DEFAULT_SEED = 7


def need_source_tree() -> None:
    """Put ``src/`` on the path, or stop: there is nothing to measure without it."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"error: {source}/repro not found; run from a checkout of the repository")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    need_source_tree()
    from .workloads import FULL, SMOKE, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        sizes=SMOKE if args.smoke else FULL, spans_out=args.spans,
    )
    table = record.per_layer if record.traced else record.end_to_end
    print(f"{record.workload} seed={record.seed} seconds={record.seconds:g} "
          f"trace={int(record.traced)} reps={record.reps} noisy_reps={record.noisy_reps}")
    for name, metric in table.items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']:<8} n={metric['n']}")
    for problem in record.problems:
        print(f"  INCORRECT: {problem}")
    if args.record:
        Path(args.record).write_text(json.dumps(dataclasses.asdict(record)) + "\n")
    if record.traced:
        metrics = {
            name: {"value": table.get(name, {"value": 0.0})["value"], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": table[name]["value"], "unit": END_TO_END[name][0]}
            for name in GATED
        }
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0 if record.correct else 1


# ---------------------------------------------------------------------------
# The whole ledger
# ---------------------------------------------------------------------------


def fingerprint() -> dict[str, Any]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_average": list(os.getloadavg()),
    }


def child_run(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> dict[str, Any]:
    """One run in a fresh subprocess; returns its full record."""
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{workload}-{seed}-{int(traced)}-{os.getpid()}.json"
    command = [
        sys.executable, "-m", "benchmarks.perf.run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        "--record", str(record_path), *(["--smoke"] if smoke else []),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if not record_path.exists():
        sys.exit(f"error: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def run_ledger(args: argparse.Namespace) -> int:
    need_source_tree()
    from .workloads import WORKLOADS

    selected = args.workload or list(WORKLOADS)
    for name in selected:
        if name not in WORKLOADS:
            sys.exit(f"error: unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
    seconds = 1 if args.smoke and args.seconds is None else args.seconds or DEFAULT_SECONDS
    ledger: dict[str, Any] = {
        "schema": "repro-perf-ledger/1",
        "fingerprint": fingerprint(),
        "seconds": seconds,
        "seeds": [args.seed + rep for rep in range(args.reps)],
        "smoke": args.smoke,
        "workloads": {},
    }
    correct = True
    for name in selected:
        runs = [
            child_run(name, seed, seconds, False, args.smoke) for seed in ledger["seeds"]
        ]
        traced = child_run(name, args.seed, seconds, True, args.smoke)
        end_to_end = {}
        for metric, (unit, better, bound) in END_TO_END.items():
            values = [run["end_to_end"][metric]["value"] for run in runs
                      if metric in run["end_to_end"]]
            if not values:
                continue
            end_to_end[metric] = {
                "unit": unit, "better": better, "bound": bound, "values": values,
                "median": statistics.median(values), "spread": spread(values),
                "n": [run["end_to_end"][metric]["n"] for run in runs],
            }
        entry = {
            "why": WORKLOADS[name].why,
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "attempted": sum(run["attempted"] for run in [*runs, traced]),
            "failed": sum(run["failed"] for run in [*runs, traced]),
            "noisy_reps": sum(run["noisy_reps"] for run in runs),
            "reps": sum(run["reps"] for run in runs),
            "problems": [p for run in [*runs, traced] for p in run["problems"]],
        }
        correct = correct and not entry["problems"]
        ledger["workloads"][name] = entry
        print_workload(name, entry)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"ledger written to {args.out}")
    return 0 if correct else 1


def print_workload(name: str, entry: dict[str, Any]) -> None:
    print(f"\n== {name}: {entry['failed']} failed of {entry['attempted']} attempted, "
          f"{entry['noisy_reps']} noisy of {entry['reps']} reps")
    print(f"   {'end-to-end':<42} {'median':>14} {'unit':<9}{'spread':>8} {'bound':>7}  runs")
    for metric, row in entry["end_to_end"].items():
        # An exact metric differs by seed, not by run: its spread says nothing.
        held = f"{row['spread']:>8.1%} {row['bound']:>7.0%}" if row["bound"] else (
            f"{'':>8} {'exact':>7}")
        print(f"   {metric:<42} {row['median']:>14.6g} {row['unit']:<9}{held}"
              f"  {len(row['values'])}")
    print(f"   {'per-layer (one traced run)':<42} {'value':>14} unit")
    for metric, row in entry["per_layer"].items():
        print(f"   {metric:<42} {row['value']:>14.6g} {row['unit']}")
    for problem in entry["problems"]:
        print(f"   INCORRECT: {problem}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(
    better: str, bound: float, base: list[float], change: list[float]
) -> tuple[float, str]:
    """(change's median / base's median, ``ok`` | ``worse`` | ``unresolved``)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    ratio = change_median / base_median if base_median else float("nan")
    if bound == 0.0:
        # Exact metrics come from the same seeds in the same order.
        pairs = zip(base, change)
        return ratio, "worse" if any(sign * (c - b) > 0 for b, c in pairs) else "ok"
    if max(spread(base), spread(change)) > bound:
        all_better = all(sign * (c - b) < 0 for b in base for c in change)
        return ratio, "ok" if all_better else "unresolved"
    worse_by = sign * (change_median - base_median) / abs(base_median)
    return ratio, "worse" if worse_by > bound else "ok"


def run_compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{'workload':<24}{'metric':<18}{'base':>14}{'change':>14}"
          f"{'change/base':>13}  verdict")
    worst = "ok"
    for name, base_entry in base["workloads"].items():
        change_entry = change["workloads"].get(name)
        if change_entry is None:
            print(f"{name:<24}missing from {args.change}")
            worst = "worse"
            continue
        for metric, row in base_entry["end_to_end"].items():
            other = change_entry["end_to_end"].get(metric)
            if other is None:
                print(f"{name:<24}{metric:<18}missing from {args.change}")
                worst = "worse"
                continue
            # The bounds are this benchmark's, not the file's: a ledger
            # written before a bound changed is held to the current one.
            _unit, better, bound = END_TO_END.get(
                metric, ("", row["better"], row["bound"]))
            ratio, status = verdict(better, bound, row["values"], other["values"])
            print(f"{name:<24}{metric:<18}{row['median']:>14.6g}{other['median']:>14.6g}"
                  f"{ratio:>13.3f}  {status}")
            if status == "worse" or (status == "unresolved" and worst == "ok"):
                worst = status
    print(f"overall: {worst}")
    return 1 if worst == "worse" else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        return run_compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["ledger"]:
        parser = argparse.ArgumentParser(prog="run.py ledger")
        parser.add_argument("--workload", action="append")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument("--seconds", type=float)
        parser.add_argument("--reps", type=int, default=5)
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--out")
        return run_ledger(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", help="also write the full run record here")
    parser.add_argument("--spans", help="traced replay: write the span log (.npz) here")
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

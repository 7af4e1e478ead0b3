"""Serial vs parallel replay throughput (writes BENCH_parallel.json).

Runs the standard scheme-grid sweep (schemes × week traces, 6 h attack)
twice — once fully in-process, once fanned over one worker per usable
core — and records wall-clock, queries/second and the speedup as
machine-readable JSON so the perf trajectory is tracked across PRs.

The attainable speedup is bounded by the cores the process can actually
run on, which is the *affinity mask* (``usable_cores``), not the machine
total (``cpu_count``): inside containers or under ``taskset`` the mask
is often smaller, and extra workers only time-slice one another.  The
parallel leg therefore runs at ``usable_cores`` workers.  The
determinism check (``identical_outputs``) must hold at any worker count.
"""

from __future__ import annotations

import os
import time

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec, run_replays, usable_cpu_count


def bench_parallel_speedup(benchmark, scenario, record_bench_json):
    attack = AttackSpec(start=scenario.attack_start, duration=6 * 3600.0)
    schemes = (ResilienceConfig.vanilla(), ResilienceConfig.refresh())
    trace_names = ("TRC1", "TRC2")
    specs = [
        ReplaySpec.for_scenario(scenario, trace_name, config, attack=attack)
        for config in schemes
        for trace_name in trace_names
    ]
    total_queries = sum(
        len(scenario.trace(trace_name)) for trace_name in trace_names
    ) * len(schemes)
    workers = usable_cpu_count()

    def compare():
        # The parallel leg goes first: workers forked after the serial leg
        # would inherit the hierarchy memos it filled and skip the
        # first-replay warm-up that a real sweep pays.
        parallel_started = time.perf_counter()
        fanned = run_replays(specs, workers=workers)
        parallel_seconds = time.perf_counter() - parallel_started

        serial_started = time.perf_counter()
        serial = run_replays(specs, workers=1)
        serial_seconds = time.perf_counter() - serial_started
        return serial, serial_seconds, fanned, parallel_seconds

    serial, serial_seconds, fanned, parallel_seconds = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    identical = fanned == serial
    speedup = serial_seconds / parallel_seconds
    payload = {
        "scale": scenario.scale.value,
        "cpu_count": os.cpu_count(),
        "usable_cores": workers,
        "replays": len(specs),
        "total_queries": total_queries,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "serial_queries_per_second": round(total_queries / serial_seconds, 1),
        "parallel_queries_per_second": round(
            total_queries / parallel_seconds, 1
        ),
        "speedup": round(speedup, 3),
        "identical_outputs": identical,
    }
    record_bench_json("BENCH_parallel", payload)
    print(
        f"\nserial {serial_seconds:.2f} s vs {workers} workers "
        f"{parallel_seconds:.2f} s -> speedup {speedup:.2f}x "
        f"(identical outputs: {identical})"
    )
    assert identical

"""Bench fixtures: the shared scenario, timing and JSON recording.

``bench_artifacts.py`` regenerates every paper table and figure into
``benchmarks/results/<name>.txt``; the other benches time one subsystem
and record ``benchmarks/BENCH_<name>.json``.

Scale defaults to SMALL; override with ``REPRO_SCALE=tiny|small|medium``.
Each artifact runs exactly once (``benchmark.pedantic`` with one round):
the artifact is a simulation result, not a microbenchmark, so wall-clock
is reported but repetition would only re-prove determinism.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import Scale, make_scenario

#: Machine-readable bench outputs live next to the benches (committed, so
#: the perf trajectory is visible across PRs).
JSON_DIR = Path(__file__).parent


@pytest.fixture(scope="session")
def scenario():
    """The standard scenario at the env-selected scale."""
    return make_scenario(Scale.from_env(default=Scale.SMALL))


@pytest.fixture
def record_bench_json():
    """Callable(name, payload): persist machine-readable bench numbers.

    Writes ``benchmarks/<name>.json`` (e.g. ``BENCH_parallel.json``);
    unlike the ``results/`` text artifacts these are meant to be diffed
    across PRs.
    """

    def _record(name: str, payload: dict) -> None:
        path = JSON_DIR / f"{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\n[bench json written to {path}]")

    return _record


@pytest.fixture
def run_once(benchmark):
    """Callable(func, *args, **kwargs): run the experiment once, timed."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run

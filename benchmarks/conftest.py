"""Bench fixtures: the shared scenario and one-shot timing.

``bench_artifacts.py`` regenerates every paper table and figure into
``benchmarks/results/<name>.txt``; timing and layer breakdowns live in
the ``benchmarks/perf`` ledger (``python -m benchmarks.perf.run``).

Scale defaults to SMALL; override with ``REPRO_SCALE=tiny|small|medium``.
Each artifact runs exactly once (``benchmark.pedantic`` with one round):
the artifact is a simulation result, not a microbenchmark, so wall-clock
is reported but repetition would only re-prove determinism.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="session")
def scenario():
    """The standard scenario at the env-selected scale."""
    return make_scenario(Scale.from_env(default=Scale.SMALL))


@pytest.fixture
def run_once(benchmark):
    """Callable(func, *args, **kwargs): run the experiment once, timed."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run

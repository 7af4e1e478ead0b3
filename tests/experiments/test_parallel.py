"""Tests for the parallel batch replay runner.

The load-bearing guarantee is determinism: a sweep fanned over worker
processes must produce *bitwise-identical* numbers to the serial loop,
because a replay's outcome depends only on its spec.  The rest covers
the failure surface (crashed workers, bad $REPRO_WORKERS)
and the picklability contract the pool relies on.
"""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments import parallel
from repro.experiments.fleet import fleet_attack_comparison
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.parallel import (
    ReplayExecutionError,
    ReplaySpec,
    WORKERS_ENV_VAR,
    default_worker_count,
    run_replays,
)
from repro.experiments.scenarios import Scale, make_scenario
from repro.obs.spec import ObservationSpec
from repro.simulation import adversary
from repro.simulation.faults import FaultSpec
from repro.simulation.metrics import (
    GapSample,
    MemorySample,
    ReplayMetrics,
    WindowCounters,
)

from tests.helpers import name


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


def _sweep_specs(scenario) -> list[ReplaySpec]:
    """A small heterogeneous sweep: two schemes, two traces, one attack."""
    attack = AttackSpec(start=scenario.attack_start, duration=6 * 3600.0)
    return [
        ReplaySpec.for_scenario(scenario, trace_name, config, attack=attack)
        for config in (ResilienceConfig.vanilla(), ResilienceConfig.refresh())
        for trace_name in ("TRC1", "TRC2")
    ]


class TestSpecs:
    def test_for_scenario_carries_the_memo_key(self, scenario):
        spec = _sweep_specs(scenario)[0]
        assert spec.scale is scenario.scale
        assert spec.scenario_seed == scenario.seed

    def test_specs_and_summaries_are_picklable(self, scenario, tmp_path):
        spec = _sweep_specs(scenario)[0]
        # Every optional part set, so each nested spec type crosses too.
        loaded = ReplaySpec.for_scenario(
            scenario, "TRC1", ResilienceConfig.refresh_renew("a-lfu", 5),
            attack=spec.attack,
            faults=FaultSpec(background_loss=0.01),
            adversary=adversary.AdversarySpec(
                nxns=adversary.NxnsAttackSpec(), poison=adversary.PoisonAttackSpec()),
            observe=ObservationSpec(events_path=str(tmp_path / "events.jsonl"),
                                    metrics_path=str(tmp_path / "metrics.prom")),
            track_gaps=True, memory_sample_interval=3600.0, validation=True,
        )
        for picklable in (spec, loaded):
            assert pickle.loads(pickle.dumps(picklable)) == picklable
        # The config's renewal-policy factory must survive the trip too.
        revived = pickle.loads(pickle.dumps(loaded.config))
        assert revived.renewal_policy() is not None

        [record] = run_replays([spec], workers=1)
        assert isinstance(record, ReplayMetrics)
        # A record with every optional part and sample list filled.
        sampled = ReplayMetrics(
            sr_queries=3, sr_failures=1,
            window=WindowCounters(0.0, 10.0, sr_queries=2, sr_failures=1),
            zone_contacts={name("example.test."): 7},
            gap_samples=[GapSample(name("example.test."), 90.0, 60.0)],
            memory_samples=[MemorySample(3600.0, 4, 12)],
            poison_dwells=[30.0, 45.5],
        )
        for result in (record, sampled):
            assert pickle.loads(pickle.dumps(result)) == result

    def test_describe_names_the_work(self, scenario):
        spec = _sweep_specs(scenario)[0]
        assert "TRC1" in spec.describe()


class TestSerialPath:
    def test_matches_direct_run_replay(self, scenario):
        spec = _sweep_specs(scenario)[0]
        direct = run_replay(
            scenario.built,
            scenario.trace(spec.trace_name),
            spec.config,
            attack=spec.attack,
            seed=spec.seed,
        )
        assert run_replays([spec], workers=1) == [direct.metrics]

    def test_results_in_spec_order(self, scenario):
        specs = _sweep_specs(scenario)
        records = run_replays(specs, workers=1)
        assert [r.sr_queries for r in records] == [
            len(scenario.trace(spec.trace_name)) for spec in specs
        ]
        assert run_replays(specs[::-1], workers=1) == records[::-1]

    def test_rejects_nonpositive_workers(self, scenario):
        with pytest.raises(ValueError):
            run_replays(_sweep_specs(scenario), workers=0)


class TestDeterminism:
    def test_parallel_is_bitwise_identical_to_serial(self, scenario):
        """The golden guarantee: worker fan-out changes nothing."""
        specs = _sweep_specs(scenario)
        serial = run_replays(specs, workers=1)
        fanned = run_replays(specs, workers=2)
        assert fanned == serial  # full dataclass equality, every counter

    def test_sampled_records_identical_at_any_worker_count(self, scenario):
        """Gap and memory samples cross the process boundary unchanged."""
        spec = ReplaySpec.for_scenario(
            scenario, "TRC1", ResilienceConfig.vanilla(),
            track_gaps=True, memory_sample_interval=12 * 3600.0,
        )
        # Two copies, so the parallel path actually engages.
        serial = run_replays([spec, spec], workers=1)
        fanned = run_replays([spec, spec], workers=2)
        assert fanned == serial
        assert serial[0].gap_samples and serial[0].memory_samples

    def test_swr_and_decoupled_identical_at_any_worker_count(
        self, scenario, tmp_path
    ):
        # Renewal 2.0 (DESIGN.md §17): the background-refetch scheduling
        # and the invalidation channel must not leak worker-count
        # nondeterminism — records equal AND event logs byte-identical.
        import filecmp

        from repro.obs.spec import ObservationSpec

        attack = AttackSpec(start=scenario.attack_start, duration=6 * 3600.0)

        def specs(tag):
            return [
                ReplaySpec.for_scenario(
                    scenario, "TRC1", config, attack=attack,
                    observe=ObservationSpec(
                        events_path=str(tmp_path / f"{config.label}-{tag}.jsonl")
                    ),
                )
                for config in (ResilienceConfig.swr(),
                               ResilienceConfig.decoupled(7.0))
            ]

        serial = run_replays(specs("serial"), workers=1)
        fanned = run_replays(specs("fanned"), workers=4)
        assert fanned == serial
        assert serial[0].swr_refreshes > 0
        assert serial[0].sr_stale_hits > 0
        for label in ("swr3600s", "decoupled7d"):
            assert filecmp.cmp(tmp_path / f"{label}-serial.jsonl",
                               tmp_path / f"{label}-fanned.jsonl",
                               shallow=False), label

    def test_parallel_fleet_matches_serial(self, scenario, monkeypatch):
        def render(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            tables = fleet_attack_comparison(
                scenario,
                [ResilienceConfig.vanilla(), ResilienceConfig.refresh()],
                trace_limit=2,
            )
            return "\n\n".join(table.render() for table in tables.values())

        serial = render(1)
        assert render(2) == serial


def _crash_worker(spec):
    os._exit(13)  # simulate an OOM-kill; never raises, just dies


class TestFailureSurface:
    def test_dead_worker_reported_clearly(self, scenario, monkeypatch):
        monkeypatch.setattr(parallel, "_execute_spec", _crash_worker)
        with pytest.raises(ReplayExecutionError, match="worker process died"):
            run_replays(_sweep_specs(scenario)[:2], workers=2)


class TestPoolLifetime:
    def test_no_worker_outlives_the_call(self, scenario):
        run_replays(_sweep_specs(scenario), workers=2)
        assert multiprocessing.active_children() == []

    def test_pool_is_sized_to_the_work(self, scenario, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        specs = _sweep_specs(scenario)[:2]
        assert run_replays(specs, workers=4) == run_replays(specs, workers=1)
        assert sizes == [2]


class TestWorkersEnvVar:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_worker_count() == 1

    def test_reads_positive_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert default_worker_count() == 4

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="many"):
            default_worker_count()

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_worker_count()

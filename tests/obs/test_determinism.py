"""Observability end-to-end: determinism and zero perturbation.

The two properties the tentpole promises: an observed replay produces a
byte-identical event log for the same spec + seed (serial or fanned over
workers), and attaching observation does not change the simulation.
"""

import hashlib

import pytest

from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.parallel import ReplaySpec, run_replays
from repro.experiments.scenarios import Scale, make_scenario
from repro.obs import EventKind, ObservationSpec, StageTimings

HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


def replay_combination(scenario, observe, seed=0, scheme="combination"):
    """The TINY ``scheme`` replay (``combination`` unless named) under
    the 6 h root+TLD attack."""
    return run_replay(
        scenario.built,
        scenario.trace("TRC1"),
        parse_scheme(scheme),
        attack=AttackSpec(start=scenario.attack_start, duration=6 * HOUR),
        seed=seed,
        observe=observe,
    )


def observed_replay(scenario, tmp_path, tag, seed=0):
    events = tmp_path / f"events-{tag}.jsonl"
    metrics = tmp_path / f"metrics-{tag}.prom"
    result = replay_combination(
        scenario,
        ObservationSpec(events_path=str(events), metrics_path=str(metrics)),
        seed=seed,
    )
    return result, events.read_bytes(), metrics.read_bytes()


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, scenario, tmp_path):
        first, events_a, metrics_a = observed_replay(scenario, tmp_path, "a")
        second, events_b, metrics_b = observed_replay(scenario, tmp_path, "b")
        assert first.event_count == second.event_count > 0
        assert events_a == events_b
        assert metrics_a == metrics_b

    def test_quiet_bus_dumps_what_a_loud_one_dumps(self, scenario, tmp_path):
        """A metrics-only replay subscribes nothing, so its hot paths
        only count; its dump must match one taken beside an event log
        (renewal timers and attack markers included)."""
        quiet = replay_combination(
            scenario, ObservationSpec(metrics_path=str(tmp_path / "a.prom"))
        )
        loud = replay_combination(
            scenario,
            ObservationSpec(metrics_path=str(tmp_path / "b.prom"),
                            events_path=str(tmp_path / "e.jsonl")),
        )
        assert quiet.bus is not None and quiet.bus.quiet
        assert loud.bus is not None and not loud.bus.quiet
        assert quiet.event_count == loud.event_count > 0
        assert (tmp_path / "a.prom").read_bytes() == (
            tmp_path / "b.prom"
        ).read_bytes()

    def test_different_seed_differs(self, scenario, tmp_path):
        _, events_a, _ = observed_replay(scenario, tmp_path, "s0", seed=0)
        _, events_b, _ = observed_replay(scenario, tmp_path, "s1", seed=1)
        assert events_a != events_b

    def test_worker_fanout_matches_serial(self, scenario, tmp_path):
        def specs(tag):
            return [
                ReplaySpec.for_scenario(
                    scenario, trace_name, ResilienceConfig.refresh(),
                    attack=AttackSpec(start=scenario.attack_start,
                                      duration=6 * HOUR),
                    observe=ObservationSpec(
                        events_path=str(tmp_path / f"{tag}-{trace_name}.jsonl")
                    ),
                )
                for trace_name in ("TRC1", "TRC2")
            ]

        serial = run_replays(specs("serial"), workers=1)
        fanned = run_replays(specs("fanned"), workers=2)
        assert fanned == serial
        for trace_name in ("TRC1", "TRC2"):
            serial_log = (tmp_path / f"serial-{trace_name}.jsonl").read_bytes()
            fanned_log = (tmp_path / f"fanned-{trace_name}.jsonl").read_bytes()
            assert serial_log == fanned_log
            assert serial_log


class TestPinnedEventLogs:
    """SHA-256 of the TINY TRC1 event log under the 6 h root+TLD attack.

    These three schemes arm, rearm, cancel and fire the most timers, so
    any change to timer order, clamping or cancellation moves a digest.
    """

    @pytest.mark.parametrize("scheme, digest", [
        ("combination",
         "8d6ce3ff193b97423bd9d88d5b4c1f5bebd496717f695b061f4c0a4ed0342857"),
        ("a-lfu:5",
         "a8fe1d754dcea802f4e4dda0b3d1580cb5cbc60d20c70eb9c51c7fd2c3316d6d"),
        ("swr:30",
         "f2f2dc5a4060d36f9a884e9cd60cdf8186f863e1ec97d3499a498504392c63f2"),
    ])
    def test_event_log_digest(self, scenario, tmp_path, scheme, digest):
        events = tmp_path / "events.jsonl"
        replay_combination(
            scenario, ObservationSpec(events_path=str(events)), scheme=scheme
        )
        assert hashlib.sha256(events.read_bytes()).hexdigest() == digest


class TestZeroPerturbation:
    def test_observed_replay_matches_unobserved_metrics(self, scenario):
        plain = replay_combination(scenario, None)
        # A bare spec leaves the bus quiet; a ring subscribes to it.
        for spec in (ObservationSpec(), ObservationSpec(ring_size=512)):
            observed = replay_combination(scenario, spec)
            assert observed.metrics == plain.metrics
            assert observed.window == plain.window
            assert observed.event_count > 0
        assert plain.event_count == 0
        assert plain.bus is None and plain.recent == ()

    def test_summary_equality_ignores_observation(self, scenario):
        plain = run_replay(scenario.built, scenario.trace("TRC1"),
                           ResilienceConfig.vanilla())
        observed = run_replay(scenario.built, scenario.trace("TRC1"),
                              ResilienceConfig.vanilla(),
                              observe=ObservationSpec())
        assert plain.metrics == observed.metrics


class TestObservationArtifacts:
    def test_bus_and_ring_surface_on_result(self, scenario):
        result = replay_combination(scenario, ObservationSpec(ring_size=64))
        assert result.bus is not None
        counts = result.bus.counts()
        assert sum(counts.values()) == result.event_count
        assert counts[EventKind.STUB_QUERY] == len(scenario.trace("TRC1"))
        assert counts[EventKind.ATTACK_START] == 1
        assert counts[EventKind.ATTACK_END] == 1
        assert counts[EventKind.QUERY_ISSUED] > 0
        assert [event.seq for event in result.recent] == list(
            range(result.event_count - 64, result.event_count)
        )

    def test_stage_timings_populated(self, scenario):
        timings = StageTimings()
        run_replay(scenario.built, scenario.trace("TRC1"),
                   ResilienceConfig.vanilla(), timings=timings)
        assert set(timings.stage_names()) == {"setup", "replay", "finalize"}
        assert timings.stats("replay").wall_seconds > 0.0
        rendered = timings.render()
        assert "replay" in rendered and "wall" in rendered

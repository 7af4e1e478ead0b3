"""Validated replays: the shadow oracle must not perturb results."""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.parallel import ReplaySpec, run_replays
from repro.experiments.scenarios import Scale, make_scenario
from repro.obs import ObservationSpec

HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestValidatedReplay:
    def test_validated_replay_matches_plain(self, scenario):
        plain = run_replay(scenario.built, scenario.trace("TRC1"),
                           ResilienceConfig.vanilla())
        validated = run_replay(scenario.built, scenario.trace("TRC1"),
                               ResilienceConfig.vanilla(), validation=True)
        assert validated.metrics == plain.metrics
        assert validated.window == plain.window

    def test_validated_event_log_byte_identical(self, scenario, tmp_path):
        def events(tag, validation):
            path = tmp_path / f"{tag}.jsonl"
            run_replay(scenario.built, scenario.trace("TRC1"),
                       ResilienceConfig.refresh(),
                       attack=AttackSpec(start=scenario.attack_start,
                                         duration=6 * HOUR),
                       observe=ObservationSpec(events_path=str(path)),
                       validation=validation)
            return path.read_bytes()

        plain_log = events("plain", validation=False)
        validated_log = events("validated", validation=True)
        assert validated_log == plain_log
        assert plain_log

    def test_combination_scheme_passes_final_invariants(self, scenario):
        # combination() runs renewal + refresh, so the end-of-replay
        # invariant sweep covers the renewal checks too.
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.combination(),
                            attack=AttackSpec(start=scenario.attack_start,
                                              duration=6 * HOUR),
                            validation=True)
        assert result.metrics.sr_queries > 0

    def test_replay_spec_carries_validation(self, scenario):
        plain_spec = ReplaySpec.for_scenario(
            scenario, "TRC1", ResilienceConfig.vanilla())
        validated_spec = ReplaySpec.for_scenario(
            scenario, "TRC1", ResilienceConfig.vanilla(), validation=True)
        assert plain_spec.validation is False
        assert validated_spec.validation is True
        plain, validated = run_replays([plain_spec, validated_spec],
                                       workers=1)
        assert plain == validated

"""Tests for scale presets and scenario construction."""

import pytest

from repro.experiments.attack_grid import week_trace_names
from repro.experiments.scenarios import (
    SCALE_ENV_VAR,
    Scale,
    Scenario,
    make_scenario,
)


class TestScale:
    def test_from_env_default(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV_VAR, raising=False)
        assert Scale.from_env() is Scale.SMALL
        assert Scale.from_env(default=Scale.TINY) is Scale.TINY

    def test_from_env_reads_variable(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "tiny")
        assert Scale.from_env() is Scale.TINY
        monkeypatch.setenv(SCALE_ENV_VAR, "MEDIUM")
        assert Scale.from_env() is Scale.MEDIUM

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "galactic")
        with pytest.raises(ValueError, match="galactic"):
            Scale.from_env()

    def test_from_env_error_lists_valid_scales(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "galactic")
        with pytest.raises(ValueError) as excinfo:
            Scale.from_env()
        message = str(excinfo.value)
        assert SCALE_ENV_VAR in message
        for scale in Scale:
            assert scale.value in message

    def test_from_env_ignores_explicit_default_when_set(self, monkeypatch):
        # An invalid value must error even when a default is supplied:
        # silently falling back would mask a typo'd REPRO_SCALE.
        monkeypatch.setenv(SCALE_ENV_VAR, "galactic")
        with pytest.raises(ValueError):
            Scale.from_env(default=Scale.TINY)


class TestScenario:
    def test_memoised_per_scale_and_seed(self):
        assert make_scenario(Scale.TINY) is make_scenario(Scale.TINY)
        assert make_scenario(Scale.TINY, seed=9) is not make_scenario(Scale.TINY)

    def test_traces_cached(self):
        scenario = make_scenario(Scale.TINY)
        assert scenario.trace("TRC1") is scenario.trace("TRC1")

    def test_week_and_month_traces_differ_in_duration(self):
        scenario = make_scenario(Scale.TINY)
        week = scenario.trace("TRC1")
        month = scenario.trace("TRC6")
        assert week.duration == pytest.approx(7 * 86400.0)
        assert month.duration == pytest.approx(31 * 86400.0)

    def test_unknown_trace_rejected(self):
        with pytest.raises(KeyError):
            make_scenario(Scale.TINY).trace("TRC9")

    def test_week_traces_limit(self):
        scenario = make_scenario(Scale.TINY)
        traces = [scenario.trace(name) for name in week_trace_names(scenario, 2)]
        assert len(traces) == 2
        assert [t.name for t in traces] == ["TRC1", "TRC2"]

    def test_traces_are_decorrelated(self):
        scenario = make_scenario(Scale.TINY)
        one, two = [scenario.trace(name)
                    for name in week_trace_names(scenario, 2)]
        heads = lambda trace: [q.qname for q in trace.queries[:30]]
        assert heads(one) != heads(two)

    def test_attack_start_is_day_seven(self):
        assert make_scenario(Scale.TINY).attack_start == 6 * 86400.0

    def test_scales_order_by_size(self):
        tiny = make_scenario(Scale.TINY)
        small = make_scenario(Scale.SMALL)
        assert small.built.tree.zone_count() > tiny.built.tree.zone_count()
        assert len(small.trace("TRC1")) > len(tiny.trace("TRC1"))

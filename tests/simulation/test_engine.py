"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_advance_fires_due_events_in_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, lambda t: fired.append(("b", t)))
        engine.schedule(1.0, lambda t: fired.append(("a", t)))
        engine.schedule(5.0, lambda t: fired.append(("c", t)))
        count = engine.advance_to(3.0)
        assert count == 2
        assert fired == [("a", 1.0), ("b", 2.0)]
        assert engine.now == 3.0

    def test_event_sees_its_fire_time_as_now(self):
        engine = SimulationEngine()
        observed = []
        engine.schedule(4.0, lambda t: observed.append(engine.now))
        engine.advance_to(10.0)
        assert observed == [4.0]

    def test_events_scheduled_during_firing_are_honoured(self):
        engine = SimulationEngine()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 3:
                engine.schedule(t + 1, chain)

        engine.schedule(1.0, chain)
        engine.advance_to(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_schedule_in_past_clamps_to_now(self):
        engine = SimulationEngine()
        engine.advance_to(5.0)
        fired = []
        engine.schedule(1.0, lambda t: fired.append(t))
        engine.advance_to(5.0)
        assert fired == [5.0]

    def test_schedule_in_delay(self):
        engine = SimulationEngine()
        engine.advance_to(2.0)
        fired = []
        engine.schedule_in(3.0, lambda t: fired.append(t))
        engine.advance_to(10.0)
        assert fired == [5.0]

    def test_schedule_in_rejects_negative(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda t: None)

    def test_backwards_advance_rejected(self):
        engine = SimulationEngine()
        engine.advance_to(5.0)
        with pytest.raises(ValueError):
            engine.advance_to(4.0)

    def test_cancelled_token_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        token = engine.schedule(1.0, lambda t: fired.append(t))
        assert engine.cancel(token)
        engine.advance_to(2.0)
        assert fired == []
        assert not engine.cancel(token)

    def test_only_tombstones_is_not_idle(self):
        # advance_to's idle test reads only the heap's head: a heap that
        # holds only cancelled tombstones must take the drain loop (which
        # discards them) and only then count as idle.
        engine = SimulationEngine()
        for time in (1.0, 2.0):
            engine.cancel(engine.schedule(time, lambda t: None))
        assert engine.pending_events() == 0
        assert engine._heap
        assert engine.advance_to(3.0) == 0
        assert engine.now == 3.0
        assert not engine._heap
        assert engine.advance_to(4.0) == 0
        assert engine.now == 4.0

    def test_run_drains_everything(self):
        engine = SimulationEngine()
        fired = []
        for time in (3.0, 1.0, 2.0):
            engine.schedule(time, lambda t: fired.append(t))
        count = engine.run()
        assert count == 3
        assert fired == [1.0, 2.0, 3.0]
        assert engine.pending_events() == 0

    def test_run_until(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda t: fired.append(t))
        engine.schedule(9.0, lambda t: fired.append(t))
        engine.run(until=5.0)
        assert fired == [1.0]
        assert engine.pending_events() == 1

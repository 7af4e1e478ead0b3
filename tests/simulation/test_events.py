"""Unit + property tests for the engine's timer queue, through its
public API: ``schedule``, ``cancel``, ``advance_to``, ``run`` and
``pending_events``."""

from hypothesis import given, strategies as st

from repro.simulation.engine import SimulationEngine


def noop(_):
    pass


class TestEventQueue:
    def test_pop_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        for time in (3.0, 1.0, 2.0):
            engine.schedule(time, fired.append)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_within_same_time(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda t: order.append("first"))
        engine.schedule(1.0, lambda t: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_advance_respects_limit(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append)
        engine.schedule(5.0, fired.append)
        assert engine.advance_to(3.0) == 1
        assert engine.advance_to(3.0) == 0
        # The later timer survives for a wider advance.
        assert engine.advance_to(10.0) == 1
        assert fired == [1.0, 5.0]

    def test_cancel_prevents_delivery(self):
        engine = SimulationEngine()
        fired = []
        token = engine.schedule(1.0, fired.append)
        engine.schedule(2.0, fired.append)
        assert engine.cancel(token)
        assert engine.run() == 1
        assert fired == [2.0]

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        token = engine.schedule(1.0, noop)
        assert engine.cancel(token)
        assert not engine.cancel(token)
        assert engine.run() == 0

    def test_cancel_after_delivery_is_rejected(self):
        engine = SimulationEngine()
        token = engine.schedule(1.0, noop)
        assert engine.run() == 1
        assert not engine.cancel(token)

    def test_fired_token_cancels_nothing_later(self):
        # A token names one timer for good: once it has fired, it cannot
        # cancel a timer scheduled after it, and neither can a cancelled
        # one's.
        engine = SimulationEngine()
        fired_token = engine.schedule(1.0, noop)
        cancelled = engine.schedule(1.5, noop)
        engine.cancel(cancelled)
        engine.advance_to(1.0)
        order = []
        engine.schedule(2.0, lambda t: order.append("live"))
        assert not engine.cancel(fired_token)
        assert not engine.cancel(cancelled)
        engine.run()
        assert order == ["live"]

    def test_cancelled_head_is_skipped(self):
        engine = SimulationEngine()
        fired = []
        first = engine.schedule(1.0, fired.append)
        engine.schedule(5.0, fired.append)
        engine.cancel(first)
        assert engine.advance_to(4.0) == 0
        assert engine.advance_to(5.0) == 1
        assert fired == [5.0]

    def test_len_counts_live_only(self):
        engine = SimulationEngine()
        token = engine.schedule(1.0, noop)
        engine.schedule(2.0, noop)
        engine.cancel(token)
        assert engine.pending_events() == 1
        engine.advance_to(1.5)
        assert engine.pending_events() == 1
        engine.advance_to(2.0)
        assert engine.pending_events() == 0

    def test_empty_behaviour(self):
        engine = SimulationEngine()
        assert engine.pending_events() == 0
        assert engine.run() == 0
        assert engine.now == 0.0
        assert engine.advance_to(100.0) == 0
        assert engine.now == 100.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        # Time order, and scheduling order within one instant.
        engine = SimulationEngine()
        fired = []
        for index, time in enumerate(times):
            engine.schedule(time, lambda t, index=index: fired.append((t, index)))
        engine.run()
        assert fired == sorted(zip(times, range(len(times))))

    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                 min_size=2, max_size=30),
        st.data(),
    )
    def test_cancelled_subset_never_delivered(self, times, data):
        engine = SimulationEngine()
        fired = []
        tokens = [engine.schedule(time, fired.append) for time in times]
        doomed = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(tokens) - 1)))
        for index in doomed:
            assert engine.cancel(tokens[index])
        survivors = sorted(
            time for index, time in enumerate(times) if index not in doomed
        )
        assert engine.run() == len(survivors)
        assert fired == survivors

    @given(
        st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                     allow_nan=False),
                           st.booleans()),
                 min_size=1, max_size=40),
    )
    def test_interleaved_push_cancel_reuse(self, plan):
        # An arbitrary interleaving of arming and cancelling delivers
        # exactly the never-cancelled timers, and leaves none pending.
        engine = SimulationEngine()
        fired = []
        expected = []
        for time, cancel_it in plan:
            token = engine.schedule(time, fired.append)
            if cancel_it:
                engine.cancel(token)
            else:
                expected.append(time)
        assert engine.pending_events() == len(expected)
        engine.run()
        assert fired == sorted(expected)
        assert engine.pending_events() == 0

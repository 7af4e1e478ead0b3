"""The cache hit's call budget, counted — no timing involved.

A hit is what a replay and `repro serve` pay most often, and in CPython
its cost is close to the number of Python-level calls it makes.  These
tests count ``call`` events under ``sys.setprofile`` so an extra frame on
the hit path (a helper, a property, a record with a Python ``__new__`` or
``__init__``) fails here instead of showing up as a slower benchmark; a
cold miss is counted too, so the hit's savings are not paid for there.
"""

import sys

from repro.core.cache import DnsCache
from repro.core.caching_server import Resolution, ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.simulation.metrics import WindowCounters

from tests.conftest import make_stack
from tests.helpers import name

WWW = name("www.example.test.")

COLD_MISS_CALLS = 283
"""Calls of a cold ``www.example.test. A`` lookup (three upstream
exchanges, no sub-resolution) when every stub query entered ``resolve``
and each ``Resolution`` was built by its Python ``__new__``.  The hit's
own probe must not cost the miss a frame."""


def _calls_of_one_query(engine, server, now, outcome=ResolutionOutcome.CACHE_HIT):
    """Code objects of every Python-level call made by one
    ``advance_to`` + ``handle_stub_query`` pair, in call order."""
    seen = []

    def on_event(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)

    sys.setprofile(on_event)
    try:
        engine.advance_to(now)
        resolution = server.handle_stub_query(WWW, RRType.A, now)
    finally:
        sys.setprofile(None)
    assert resolution.outcome is outcome
    return seen


class TestHitCallBudget:
    def test_a_hit_on_an_idle_engine_is_four_calls(self, mini):
        server, engine, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)  # warm
        seen = _calls_of_one_query(engine, server, 1.0)
        # advance_to, handle_stub_query, get, record_sr_query.
        assert len(seen) <= 4, [code.co_name for code in seen]
        assert seen.count(DnsCache.get.__code__) == 1
        assert Resolution.__new__.__code__ not in seen
        assert all(
            code.co_name not in ("__new__", "__init__") for code in seen
        )

    def test_a_watched_window_costs_no_call(self, mini):
        server, engine, _, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)
        baseline = _calls_of_one_query(engine, server, 1.0)
        metrics.window = WindowCounters(0.0, 10.0)
        watched = _calls_of_one_query(engine, server, 2.0)
        assert len(watched) == len(baseline)
        assert metrics.window.sr_queries == 1

    def test_a_cold_miss_gains_no_call(self, mini):
        server, engine, _, metrics = make_stack(mini, ResilienceConfig.vanilla())
        seen = _calls_of_one_query(
            engine, server, 0.0, ResolutionOutcome.ANSWERED
        )
        assert metrics.cs_demand_queries == 3
        assert len(seen) <= COLD_MISS_CALLS
        assert Resolution.__new__.__code__ not in seen

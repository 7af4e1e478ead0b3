"""The cache hit's call budget, counted — no timing involved.

A hit is what a replay and `repro serve` pay most often, and in CPython
its cost is close to the number of Python-level calls it makes.  These
tests count ``call`` events under ``sys.setprofile`` so an extra frame on
the hit path (a helper, a property, a record with a Python ``__init__``)
fails here instead of showing up as a slower benchmark.
"""

import sys

from repro.core.cache import DnsCache
from repro.core.caching_server import ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.simulation.metrics import WindowCounters

from tests.conftest import make_stack
from tests.helpers import name

WWW = name("www.example.test.")


def _calls_of_one_hit(engine, server, now):
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
    assert resolution.outcome is ResolutionOutcome.CACHE_HIT
    return seen


class TestHitCallBudget:
    def test_a_hit_on_an_idle_engine_is_six_calls(self, mini):
        server, engine, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)  # warm
        seen = _calls_of_one_hit(engine, server, 1.0)
        # advance_to, handle_stub_query, resolve, get, the Resolution
        # tuple, record_sr_query.
        assert len(seen) <= 6, [code.co_name for code in seen]
        assert seen.count(DnsCache.get.__code__) == 1
        assert all(code.co_name != "__init__" for code in seen)

    def test_a_watched_window_costs_exactly_its_contains(self, mini):
        server, engine, _, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)
        baseline = _calls_of_one_hit(engine, server, 1.0)
        metrics.watch_window(0.0, 10.0)
        watched = _calls_of_one_hit(engine, server, 2.0)
        assert len(watched) == len(baseline) + 1
        assert watched.count(WindowCounters.contains.__code__) == 1

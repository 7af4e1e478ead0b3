"""The cache hit's call budget, counted — no timing involved.

A hit is what a replay and `repro serve` pay most often, and in CPython
its cost is close to the number of Python-level calls it makes.  These
tests count ``call`` events under ``sys.setprofile`` so an extra frame on
the hit path (a helper, a property, a record with a Python ``__init__``)
fails here instead of showing up as a slower benchmark.
"""

import sys

from repro.core.cache import DnsCache, cache_key
from repro.core.caching_server import CachingServer, ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.simulation.metrics import WindowCounters

from tests.conftest import make_stack
from tests.helpers import HOUR, name

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
        assert CachingServer._question_for.__code__ not in seen
        assert all(code.co_name != "__init__" for code in seen)

    def test_a_watched_window_costs_exactly_its_contains(self, mini):
        server, engine, _, metrics = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)
        baseline = _calls_of_one_hit(engine, server, 1.0)
        metrics.watch_window(0.0, 10.0)
        watched = _calls_of_one_hit(engine, server, 2.0)
        assert len(watched) == len(baseline) + 1
        assert watched.count(WindowCounters.contains.__code__) == 1


class TestQuestionMemo:
    def test_hits_neither_read_nor_grow_the_memo(self, mini):
        server, engine, *_ = make_stack(mini, ResilienceConfig.vanilla())
        server.handle_stub_query(WWW, RRType.A, 0.0)
        memoised = len(server._questions)
        for step in range(1, 1001):
            now = step * 0.5  # inside the 600 s data TTL
            engine.advance_to(now)
            server.handle_stub_query(WWW, RRType.A, now)
        assert len(server._questions) == memoised

    def test_every_fetch_of_a_key_sends_the_one_memoised_question(
        self, mini, monkeypatch
    ):
        config = ResilienceConfig.refresh_renew("lru", 2)
        server, engine, _, metrics = make_stack(mini, config)
        sent = []
        query_zone = server._query_zone

        def spy(zone, question, *args, **kwargs):
            sent.append(question)
            return query_zone(zone, question, *args, **kwargs)

        monkeypatch.setattr(server, "_query_zone", spy)
        # Two misses of the same key (the data TTL lapses in between)...
        server.handle_stub_query(WWW, RRType.A, 0.0)
        engine.advance_to(0.5 * HOUR)
        server.handle_stub_query(WWW, RRType.A, 0.5 * HOUR)
        demand = [q for q in sent if q.rrtype is RRType.A]
        assert len(demand) >= 4  # root, TLD, SLD; then the SLD again
        assert all(q is demand[0] for q in demand)
        assert server._questions[cache_key(WWW, RRType.A)] is demand[0]
        # ...and two renewal refetches of the zone's NS set.
        engine.advance_to(3 * HOUR)
        assert metrics.cs_renewal_queries >= 2
        renewals = [q for q in sent if q.rrtype is RRType.NS]
        assert len(renewals) >= 2
        assert all(q is renewals[0] for q in renewals)
        zone_key = cache_key(name("example.test."), RRType.NS)
        assert server._questions[zone_key] is renewals[0]
        # One Question per key that went upstream, and no others.
        assert len(server._questions) == len({id(q) for q in sent})

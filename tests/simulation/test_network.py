"""Tests for message delivery and reachability."""

import pytest

from repro.dns.message import Question
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_zones
from repro.simulation.network import LatencyModel, Network

from tests.helpers import build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


def question(text="www.example.test."):
    return Question(name(text), RRType.A)


class TestDelivery:
    def test_answered_query(self, mini):
        network = Network(mini.tree)
        result = network.query(
            mini.address_of("ns1.example.test."), question(), now=0.0
        )
        assert result.answered
        assert result.message.answer
        address = mini.address_of("ns1.example.test.")
        assert result.latency == network.latency.rtt_for(address)

    def test_unknown_address_times_out(self, mini):
        network = Network(mini.tree)
        result = network.query("203.0.113.99", question(), now=0.0)
        assert not result.answered
        assert result.latency == network.latency.timeout

    def test_blocked_address_times_out(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=100.0)
        network = Network(mini.tree, attacks=attacks)
        address = mini.address_of("ns1.example.test.")
        blocked = network.query(address, question(), now=50.0)
        assert not blocked.answered
        after = network.query(address, question(), now=150.0)
        assert after.answered

    def test_lame_server_returns_unanswered_fast(self, mini):
        network = Network(mini.tree)
        result = network.query(
            mini.address_of("ns1.example.test."), question("www.unrelated.alt."),
            now=0.0,
        )
        assert not result.answered
        # REFUSED, not a timeout: the cost is one round trip.
        address = mini.address_of("ns1.example.test.")
        assert result.latency == network.latency.rtt_for(address)

    def test_counters(self, mini):
        network = Network(mini.tree)
        answered = network.query(
            mini.address_of("ns1.example.test."), question(), 0.0
        )
        lost = network.query("203.0.113.99", question(), 0.0)
        assert answered.answered
        # An address nobody serves swallows the query: a full timeout.
        assert not lost.answered and lost.timed_out
        assert lost.latency == network.latency.timeout

    def test_is_reachable(self, mini):
        attacks = attack_on_zones(mini.tree, [name("test.")],
                                  start=0.0, duration=10.0)
        network = Network(mini.tree, attacks=attacks)
        address = mini.address_of("ns1.test.")
        during = network.query(address, question(), 5.0)
        assert not during.answered and during.timed_out
        assert network.query(address, question(), 15.0).answered
        unknown = network.query("203.0.113.99", question(), 15.0)
        assert not unknown.answered and unknown.timed_out

    def test_custom_latency_model(self, mini):
        model = LatencyModel(rtt=0.1, timeout=5.0, rtt_spread=0.0)
        network = Network(mini.tree, latency=model)
        ok = network.query(mini.address_of("a.root."), question(), 0.0)
        lost = network.query("203.0.113.99", question(), 0.0)
        assert ok.latency == 0.1
        assert lost.latency == 5.0

"""Tests for dead-server hold-down and RTT-based server selection."""

import random
from dataclasses import replace

import pytest

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig, RetryPolicy
from repro.obs import EventBus, EventKind
from repro.simulation.attack import attack_on_zones
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network, QueryResult
from repro.dns.rrtypes import RRType

from tests.conftest import make_stack
from tests.helpers import HOUR, build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


def holddown_config(seconds):
    """Vanilla with one try per server, sidelined after its first failure."""
    return replace(
        ResilienceConfig.vanilla(),
        retry_policy=RetryPolicy(max_tries=1, holddown_failures=1,
                                 holddown=seconds),
    )


class TestHolddown:
    def test_failed_server_not_retried_within_holddown(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=10 * HOUR)
        config = holddown_config(600.0)
        server, engine, network, metrics = make_stack(mini, config,
                                                      attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        first_round = metrics.cs_demand_failures
        assert first_round >= 2  # both SLD servers tried and failed
        # Within the hold-down window the dead servers are skipped: the
        # retry generates strictly fewer failed queries.
        server.handle_stub_query(name("www.example.test."), RRType.A, 100.0)
        second_round = metrics.cs_demand_failures - first_round
        assert second_round < first_round

    def test_holddown_expires(self, mini):
        # Attack ends at 1 h; after hold-down expiry the server works.
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=HOUR)
        config = holddown_config(600.0)
        server, *_ = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        late = server.handle_stub_query(name("www.example.test."), RRType.A,
                                        1.5 * HOUR)
        assert not late.failed

    def test_success_clears_holddown(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=100.0)
        config = holddown_config(50.0)
        server, *_ = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # Attack over at 100; hold-down (till ~50-150) may still apply,
        # but once any query succeeds the state is cleared.
        ok = server.handle_stub_query(name("www.example.test."), RRType.A, 200.0)
        assert not ok.failed
        assert not server._held_down or all(
            deadline <= 200.0 for deadline in server._held_down.values()
        )

    def test_disabled_by_default(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=10 * HOUR)
        server, engine, network, metrics = make_stack(
            mini, ResilienceConfig.vanilla(), attacks=attacks
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        first = metrics.cs_demand_failures
        server.handle_stub_query(name("www.example.test."), RRType.A, 100.0)
        # Without hold-down, the same dead servers are retried in full.
        assert metrics.cs_demand_failures - first >= 2


class TestRttSelection:
    def test_prefers_faster_server_after_learning(self, mini):
        config = replace(ResilienceConfig.vanilla(), prefer_fast_servers=True)
        server, engine, network, metrics = make_stack(mini, config)
        # Warm up RTT estimates for both example.test. servers: the data
        # TTL is 600 s, so re-resolve repeatedly.
        for step in range(8):
            server.handle_stub_query(name("www.example.test."), RRType.A,
                                     step * 700.0)
        addresses = [
            mini.address_of("ns1.example.test."),
            mini.address_of("ns2.example.test."),
        ]
        known = [a for a in addresses if server.srtt_of(a) is not None]
        assert known, "no RTT estimates learned"
        fast = min(addresses, key=network.latency.rtt_for)
        # Once both are known, further queries should go to the fast one;
        # its estimate converges towards its true RTT.
        if len(known) == 2:
            slow = max(addresses, key=network.latency.rtt_for)
            assert server.srtt_of(fast) <= server.srtt_of(slow) + 1e-9

    def test_rtt_for_is_stable_and_spread(self, mini):
        from repro.simulation.network import LatencyModel
        model = LatencyModel(rtt=0.04, rtt_spread=0.5)
        a = model.rtt_for("10.0.0.1")
        assert a == model.rtt_for("10.0.0.1")
        values = {model.rtt_for(f"10.0.0.{i}") for i in range(1, 20)}
        assert len(values) > 10
        assert all(0.02 - 1e-9 <= v <= 0.06 + 1e-9 for v in values)

    def test_zero_spread_uniform(self):
        from repro.simulation.network import LatencyModel
        model = LatencyModel(rtt=0.04, rtt_spread=0.0)
        assert model.rtt_for("10.0.0.1") == 0.04


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_tries=0)
        with pytest.raises(ValueError):
            RetryPolicy(holddown_failures=0)
        with pytest.raises(ValueError):
            RetryPolicy(holddown=-1.0)

    def test_paid_latency_doubles_per_try(self, mini):
        assert [RetryPolicy().try_cost(2.0, n) for n in range(3)] == [
            2.0, 4.0, 8.0,
        ]
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=HOUR)
        network = Network(mini.tree, attacks=attacks)
        bus = EventBus()
        failed = []

        def on_event(event):
            if event.kind is EventKind.QUERY_FAILED:
                failed.append(event.get("latency"))

        bus.subscribe(on_event)
        server = CachingServer(
            root_hints=mini.tree.root_hints(),
            network=network,
            clock=SimulationEngine(),
            config=ResilienceConfig.vanilla().with_retries(
                RetryPolicy(max_tries=3, holddown=None)
            ),
            observer=bus,
        )
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # Every dead SLD server is tried three times, try n paying the
        # network timeout * 2**n, and the metrics sum what was paid.
        timeout = network.query_timeout
        schedule = [timeout, 2 * timeout, 4 * timeout]
        assert len(failed) >= 6
        assert failed == schedule * (len(failed) // 3)
        assert server.metrics.total_latency >= sum(failed)

    def test_with_retries_label(self):
        config = ResilienceConfig.refresh().with_retries(
            RetryPolicy(max_tries=3)
        )
        assert config.label == "refresh+retry3"
        assert "retries(3x2)" in config.describe()

    def test_retries_retransmit_to_timed_out_servers(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=HOUR)
        single = make_stack(mini, ResilienceConfig.vanilla(), attacks=attacks)
        single[0].handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        base_sent = single[3].total_outgoing

        config = ResilienceConfig.vanilla().with_retries(
            RetryPolicy(max_tries=3, holddown=None)
        )
        retried = make_stack(mini, config, attacks=attacks)
        retried[0].handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        assert retried[3].total_outgoing > base_sent

    def test_no_retransmit_to_lame_servers(self, mini):
        # A lame delegation answers fast and deterministically; the retry
        # loop must not retransmit to it.
        config = ResilienceConfig.vanilla().with_retries(
            RetryPolicy(max_tries=3, holddown=None)
        )
        plain = make_stack(mini, ResilienceConfig.vanilla())
        plain[0].handle_stub_query(name("www.unrelated.alt."), RRType.A, 0.0)
        retried = make_stack(mini, config)
        retried[0].handle_stub_query(name("www.unrelated.alt."), RRType.A, 0.0)
        assert retried[3].total_outgoing == plain[3].total_outgoing

    def test_consecutive_failures_trigger_holddown(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=HOUR)
        config = ResilienceConfig.vanilla().with_retries(
            RetryPolicy(max_tries=2, holddown_failures=2, holddown=500.0)
        )
        server, *_ = make_stack(mini, config, attacks=attacks)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # Both SLD servers failed twice in a row -> both sidelined, and
        # the failure counters restart for a clean post-hold-down slate.
        held = [a for a, until in server._held_down.items() if until > 0.0]
        assert len(held) >= 2
        assert not server._consecutive_failures

    def test_holddown_expires_and_success_clears_state(self, mini):
        attacks = attack_on_zones(mini.tree, [name("example.test.")],
                                  start=0.0, duration=600.0)
        config = ResilienceConfig.vanilla().with_retries(
            RetryPolicy(max_tries=2, holddown_failures=2, holddown=300.0)
        )
        server, *_ = make_stack(mini, config, attacks=attacks)
        failed = server.handle_stub_query(name("www.example.test."),
                                          RRType.A, 0.0)
        assert failed.failed
        # Attack over at 600, hold-downs expired at ~300: recovery.
        late = server.handle_stub_query(name("www.example.test."),
                                        RRType.A, 700.0)
        assert not late.failed
        assert not server._consecutive_failures

    def test_flapping_server_loses_srtt_preference(self, mini):
        flappy = mini.address_of("ns1.example.test.")
        steady = mini.address_of("ns2.example.test.")

        class OneDeadServer(Network):
            def query(self, address, question, now):
                if address == flappy:
                    return QueryResult(None, self.latency.timeout,
                                       timed_out=True)
                return super().query(address, question, now)

        config = replace(
            ResilienceConfig.vanilla().with_retries(
                RetryPolicy(max_tries=2, holddown=None)
            ),
            prefer_fast_servers=True,
        )
        server = CachingServer(
            root_hints=mini.tree.root_hints(),
            network=OneDeadServer(mini.tree),
            clock=SimulationEngine(),
            config=config,
        )
        for step in range(8):
            server.handle_stub_query(name("www.example.test."), RRType.A,
                                     step * 700.0)
        # Failed tries feed the smoothed RTT: the always-down server's
        # estimate dwarfs the steady server's real RTT.
        assert server.srtt_of(flappy) is not None
        assert server.srtt_of(steady) is not None
        assert server.srtt_of(flappy) > server.srtt_of(steady)


class TestRotation:
    def test_pivot_draws_match_random_randrange(self, mini):
        """Each zone visit rotates the NS set by a pivot drawn exactly as
        ``Random.randrange(len(names))`` draws it, rejections included:
        the first server asked on every visit is the one a resolver
        seeded the same way, drawing with ``randrange``, would ask."""
        bus = EventBus()
        first_asked: list[tuple[str, str]] = []

        def on_event(event):
            if event.kind is EventKind.QUERY_ISSUED:
                first_asked.append((event.get("zone"), event.get("server")))

        bus.subscribe(on_event)
        server = CachingServer(
            root_hints=mini.tree.root_hints(),
            network=Network(mini.tree),
            clock=SimulationEngine(),
            config=ResilienceConfig.vanilla(),
            observer=bus,
            seed=11,
        )
        # The first lookup walks root -> test. -> example.test.; every
        # later one (a distinct absent name) visits example.test. alone.
        for index in range(40):
            server.handle_stub_query(
                name(f"h{index}.example.test."), RRType.A, float(index)
            )

        def servers(zone):
            entry = server.cache.entry(name(zone), RRType.NS)
            if entry is None:
                return mini.tree.root_hints().server_names()
            return entry.rrset.data_values()

        draws = random.Random(11)
        expected = []
        for zone, _ in first_asked:
            names = servers(zone)
            expected.append(
                (zone, mini.addresses[str(names[draws.randrange(len(names))])])
            )
        assert len(first_asked) == 42
        assert first_asked == expected

"""Tests for the deterministic fault-injection layer."""

import pytest

from repro.dns.message import Question
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_zones
from repro.simulation.faults import FaultSpec, unit_hash
from repro.simulation.network import Network

from tests.helpers import build_mini_internet, name


@pytest.fixture
def mini():
    return build_mini_internet()


def question(text="www.example.test."):
    return Question(name(text), RRType.A)


class TestUnitHash:
    def test_deterministic(self):
        assert unit_hash(7, "loss", "10.0.0.1", 3) == unit_hash(
            7, "loss", "10.0.0.1", 3
        )

    def test_in_unit_interval(self):
        draws = [
            unit_hash(seed, stream, address, ordinal)
            for seed in (0, 1)
            for stream in ("attack", "loss")
            for address in ("10.0.0.1", "10.0.0.2")
            for ordinal in range(10)
        ]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_streams_are_split(self):
        # Different key components give (near-certainly) different draws.
        base = unit_hash(7, "loss", "10.0.0.1", 0)
        assert unit_hash(7, "attack", "10.0.0.1", 0) != base
        assert unit_hash(7, "loss", "10.0.0.2", 0) != base
        assert unit_hash(7, "loss", "10.0.0.1", 1) != base
        assert unit_hash(8, "loss", "10.0.0.1", 0) != base

    def test_roughly_uniform(self):
        draws = [unit_hash(1, "u", "a", i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestFaultSpecValidation:
    @pytest.mark.parametrize("loss", [-0.1, 1.1, 2.0])
    def test_bad_loss_rejected(self, loss):
        with pytest.raises(ValueError):
            FaultSpec(background_loss=loss)

    def test_defaults_are_inert(self):
        injector = FaultSpec().build(seed=1)
        assert not any(
            injector.loss_drops("a", ordinal) for ordinal in range(500)
        )

class TestInjector:
    def test_ordinals_advance_per_address(self):
        injector = FaultSpec().build(seed=1)
        assert injector.next_ordinal("a") == 0
        assert injector.next_ordinal("a") == 1
        assert injector.next_ordinal("b") == 0
        assert injector.next_ordinal("a") == 2

    def test_attack_drop_edges(self):
        injector = FaultSpec().build(seed=1)
        assert not injector.attack_drops("a", 0, 0.0)
        assert injector.attack_drops("a", 0, 1.0)

    def test_partial_attack_drop_rate(self):
        injector = FaultSpec().build(seed=1)
        drops = sum(
            injector.attack_drops("a", ordinal, 0.5) for ordinal in range(2000)
        )
        assert 0.45 < drops / 2000 < 0.55

    def test_loss_drop_rate(self):
        injector = FaultSpec(background_loss=0.2).build(seed=3)
        drops = sum(
            injector.loss_drops("a", ordinal) for ordinal in range(2000)
        )
        assert 0.15 < drops / 2000 < 0.25

    def test_two_injectors_agree(self):
        spec = FaultSpec(background_loss=0.3)
        first = spec.build(seed=9)
        second = spec.build(seed=9)
        for ordinal in range(100):
            assert first.loss_drops("a", ordinal) == second.loss_drops(
                "a", ordinal
            )

    def test_interleaved_ordinals_stay_monotonic_per_address(self):
        injector = FaultSpec().build(seed=2)
        pattern = ["a", "b", "a", "c", "b", "a", "c", "c", "a", "b"]
        seen: dict[str, list[int]] = {}
        for address in pattern:
            seen.setdefault(address, []).append(
                injector.next_ordinal(address)
            )
        for address, ordinals in seen.items():
            assert ordinals == list(range(pattern.count(address)))

    def test_interleaving_does_not_shift_per_address_draws(self):
        # The draw an address sees for its n-th query must not depend on
        # how other addresses' queries interleave with it.
        spec = FaultSpec(background_loss=0.5)
        interleaved = spec.build(seed=3)
        pattern = ["a", "b", "a", "c", "b", "a", "c", "c", "a", "b"]
        draws: dict[str, list[bool]] = {}
        for address in pattern:
            ordinal = interleaved.next_ordinal(address)
            draws.setdefault(address, []).append(
                interleaved.loss_drops(address, ordinal)
            )
        isolated = spec.build(seed=3)
        for address in ("a", "b", "c"):
            expected = [
                isolated.loss_drops(address, ordinal)
                for ordinal in range(pattern.count(address))
            ]
            assert draws[address] == expected

class TestNetworkWithFaults:
    def test_total_loss_drops_everything(self, mini):
        injector = FaultSpec(background_loss=1.0).build(seed=1)
        network = Network(mini.tree, faults=injector)
        result = network.query(
            mini.address_of("ns1.example.test."), question(), now=0.0
        )
        assert not result.answered
        assert result.dropped_by == "loss"
        assert result.timed_out
        assert result.latency == network.latency.timeout

    def test_inert_spec_answers_like_no_faults(self, mini):
        address = mini.address_of("ns1.example.test.")
        plain = Network(mini.tree).query(address, question(), now=0.0)
        faulted = Network(mini.tree, faults=FaultSpec().build(seed=1)).query(
            address, question(), now=0.0
        )
        assert faulted.answered
        assert faulted.latency == plain.latency
        assert faulted.dropped_by is None

    def test_partial_attack_drops_a_fraction(self, mini):
        attacks = attack_on_zones(
            mini.tree, [name("example.test.")], start=0.0, duration=1000.0,
            intensity=0.5,
        )
        network = Network(
            mini.tree, attacks=attacks, faults=FaultSpec().build(seed=1)
        )
        address = mini.address_of("ns1.example.test.")
        outcomes = [
            network.query(address, question(), now=10.0) for _ in range(400)
        ]
        dropped = [r for r in outcomes if r.dropped_by == "attack"]
        answered = [r for r in outcomes if r.answered]
        assert len(dropped) + len(answered) == 400
        assert 140 < len(dropped) < 260

    def test_full_intensity_with_injector_is_a_blackout(self, mini):
        attacks = attack_on_zones(
            mini.tree, [name("example.test.")], start=0.0, duration=100.0,
        )
        network = Network(
            mini.tree, attacks=attacks, faults=FaultSpec().build(seed=1)
        )
        address = mini.address_of("ns1.example.test.")
        for _ in range(20):
            result = network.query(address, question(), now=50.0)
            assert result.dropped_by == "attack"

    def test_replayed_network_is_byte_identical(self, mini):
        spec = FaultSpec(background_loss=0.3)
        address = mini.address_of("ns1.example.test.")

        def run():
            network = Network(mini.tree, faults=spec.build(seed=11))
            return [
                (r.answered, r.dropped_by, r.latency)
                for r in (
                    network.query(address, question(), now=float(i))
                    for i in range(200)
                )
            ]

        assert run() == run()

"""Tests for the DDoS attack model."""

import pytest

from repro.dns.name import root_name
from repro.simulation.attack import (
    AttackSchedule,
    AttackWindow,
    attack_on_root_and_tlds,
    attack_on_zones,
)

from tests.helpers import build_mini_internet, name

DAY = 86400.0
HOUR = 3600.0


@pytest.fixture
def mini():
    return build_mini_internet()


class TestAttackWindow:
    def test_active_bounds_are_half_open(self):
        window = AttackWindow(10.0, 20.0, frozenset([root_name()]))
        assert not window.active_at(9.99)
        assert window.active_at(10.0)
        assert window.active_at(19.99)
        assert not window.active_at(20.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            AttackWindow(10.0, 10.0, frozenset())

    def test_duration(self):
        assert AttackWindow(0.0, 6 * HOUR, frozenset()).duration == 6 * HOUR

    def test_default_intensity_is_blackout(self):
        assert AttackWindow(0.0, 10.0, frozenset()).intensity == 1.0

    @pytest.mark.parametrize("intensity", [-0.1, 1.5])
    def test_out_of_range_intensity_rejected(self, intensity):
        with pytest.raises(ValueError):
            AttackWindow(0.0, 10.0, frozenset(), intensity=intensity)


class TestAttackSchedule:
    def test_blocks_targeted_zone_servers_only_during_window(self, mini):
        schedule = attack_on_zones(
            mini.tree, [name("example.test.")], start=100.0, duration=50.0
        )
        address = mini.address_of("ns1.example.test.")
        assert not schedule.is_blocked(address, 99.0)
        assert schedule.is_blocked(address, 120.0)
        assert not schedule.is_blocked(address, 151.0)

    def test_untargeted_zone_unaffected(self, mini):
        schedule = attack_on_zones(mini.tree, [name("example.test.")],
                                   start=0.0, duration=100.0)
        assert not schedule.is_blocked(mini.address_of("ns1.provider.test."), 50.0)

    def test_shared_server_blocked_when_any_hosted_zone_attacked(self, mini):
        # provider.test.'s servers also serve hosted.test.; attacking
        # hosted.test. floods those servers.
        schedule = attack_on_zones(mini.tree, [name("hosted.test.")],
                                   start=0.0, duration=100.0)
        assert schedule.is_blocked(mini.address_of("ns1.provider.test."), 50.0)

    def test_root_and_tld_attack_covers_all_tlds(self, mini):
        schedule = attack_on_root_and_tlds(mini.tree, start=0.0, duration=10.0)
        for server in ("a.root.", "b.root.", "ns1.test.", "ns1.alt."):
            assert schedule.is_blocked(mini.address_of(server), 5.0)
        assert not schedule.is_blocked(mini.address_of("ns1.example.test."), 5.0)

    def test_default_window_matches_paper(self, mini):
        schedule = attack_on_root_and_tlds(mini.tree)
        window = schedule.windows()[0]
        assert window.start == 6 * DAY
        assert window.duration == 6 * HOUR

    def test_any_active_and_blocked_zone_names(self, mini):
        schedule = attack_on_zones(mini.tree, [name("test.")],
                                   start=10.0, duration=10.0)
        assert not schedule.any_active(5.0)
        assert schedule.any_active(15.0)
        assert schedule.blocked_zone_names(15.0) == {name("test.")}
        assert schedule.blocked_zone_names(25.0) == set()

    def test_multiple_windows(self, mini):
        schedule = AttackSchedule(mini.tree)
        schedule.add_window(
            AttackWindow(0.0, 10.0, frozenset([name("test.")]))
        )
        schedule.add_window(
            AttackWindow(20.0, 30.0, frozenset([name("alt.")]))
        )
        test_address = mini.address_of("ns1.test.")
        alt_address = mini.address_of("ns1.alt.")
        assert schedule.is_blocked(test_address, 5.0)
        assert not schedule.is_blocked(alt_address, 5.0)
        assert schedule.is_blocked(alt_address, 25.0)
        assert not schedule.is_blocked(test_address, 25.0)

    def test_unknown_zone_blocks_nothing(self, mini):
        schedule = attack_on_zones(mini.tree, [name("ghost.test.")],
                                   start=0.0, duration=10.0)
        for address in mini.addresses.values():
            assert not schedule.is_blocked(address, 5.0)

    def test_empty_zone_list_rejected(self, mini):
        with pytest.raises(ValueError):
            attack_on_zones(mini.tree, [], start=0.0, duration=10.0)

    def test_empty_schedule_blocks_nothing(self, mini):
        schedule = AttackSchedule(mini.tree)
        address = mini.address_of("ns1.test.")
        assert not schedule.is_blocked(address, 0.0)
        assert schedule.block_intensity(address, 1e9) == 0.0


class TestIntensity:
    def test_partial_window_reports_intensity_not_blocked(self, mini):
        schedule = attack_on_zones(mini.tree, [name("example.test.")],
                                   start=100.0, duration=50.0, intensity=0.4)
        address = mini.address_of("ns1.example.test.")
        assert schedule.block_intensity(address, 120.0) == 0.4
        assert not schedule.is_blocked(address, 120.0)
        assert schedule.block_intensity(address, 99.0) == 0.0

    def test_overlapping_windows_combine_by_max(self, mini):
        schedule = AttackSchedule(mini.tree)
        schedule.add_window(
            AttackWindow(0.0, 100.0, frozenset([name("test.")]), intensity=0.3)
        )
        schedule.add_window(
            AttackWindow(50.0, 150.0, frozenset([name("test.")]), intensity=0.8)
        )
        address = mini.address_of("ns1.test.")
        assert schedule.block_intensity(address, 25.0) == 0.3
        assert schedule.block_intensity(address, 75.0) == 0.8
        assert schedule.block_intensity(address, 125.0) == 0.8
        assert schedule.block_intensity(address, 175.0) == 0.0

"""The collector pause around bulk construction leaves no trace of itself.

``build_hierarchy`` and ``TraceGenerator.generate`` switch the cyclic
collector off while they allocate; whoever calls them must find it as
they left it — on, off, or on after an exception — and must not be
handed a backlog of young objects to walk.
"""

import gc

import pytest

from repro.collector import paused_collector
from repro.dns.name import Name
from repro.hierarchy import builder as builder_module
from repro.hierarchy.builder import HierarchyConfig, build_hierarchy
from repro.workload import generator as generator_module
from repro.workload.generator import TraceGenerator, WorkloadConfig

HIERARCHY = HierarchyConfig(num_tlds=4, num_slds=30, num_providers=2)
ZONE = Name.from_text("z.collector.test")
CATALOG = {ZONE: [ZONE.child("www"), ZONE.child("mail")]}
WORKLOAD = WorkloadConfig(duration_days=1.0, queries_per_day=500, num_clients=5)


def build():
    build_hierarchy(HIERARCHY, seed=1)


def generate():
    TraceGenerator(CATALOG, WORKLOAD, seed=1).generate("T")


@pytest.fixture
def collector_state():
    """Hands the collector back the way pytest had it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class Boom(Exception):
    pass


def explode(*args, **kwargs):
    raise Boom


@pytest.mark.usefixtures("collector_state")
class TestCallerFindsTheCollectorAsItWas:
    @pytest.mark.parametrize("call", [build, generate])
    def test_left_on(self, call):
        gc.enable()
        call()
        assert gc.isenabled()

    @pytest.mark.parametrize("call", [build, generate])
    def test_left_off(self, call):
        gc.disable()
        call()
        assert not gc.isenabled()

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_build_that_raises(self, monkeypatch, was_enabled):
        monkeypatch.setattr(builder_module.HierarchyBuilder, "_build_root", explode)
        (gc.enable if was_enabled else gc.disable)()
        with pytest.raises(Boom):
            build()
        assert gc.isenabled() is was_enabled

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_generate_that_raises(self, monkeypatch, was_enabled):
        monkeypatch.setattr(
            generator_module.TraceGenerator, "_host_positions", explode
        )
        (gc.enable if was_enabled else gc.disable)()
        with pytest.raises(Boom):
            generate()
        assert gc.isenabled() is was_enabled


@pytest.mark.usefixtures("collector_state")
class TestPause:
    def test_collector_is_off_inside(self):
        gc.enable()
        with paused_collector():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_young_objects_are_walked_before_the_block_returns(self):
        """No pass over what the block built is left for the caller's next
        allocations to trigger (a timer around the call would miss it)."""
        gc.enable()
        with paused_collector():
            kept = [[index] for index in range(20 * gc.get_threshold()[0])]
        young, middle, _ = gc.get_count()
        assert young < gc.get_threshold()[0] and middle == 0
        assert len(kept) == 20 * gc.get_threshold()[0]

    def test_nothing_is_collected_for_a_caller_who_had_it_off(self):
        gc.disable()
        with paused_collector():
            kept = [[index] for index in range(3 * gc.get_threshold()[0])]
        assert gc.get_count()[0] > 2 * gc.get_threshold()[0]
        assert len(kept) == 3 * gc.get_threshold()[0]

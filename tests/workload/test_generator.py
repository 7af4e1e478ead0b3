"""Tests for the synthetic workload generator."""

import math

import numpy as np
import pytest

from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.experiments.scenarios import Scale, make_scenario
from repro.workload.generator import DAY, TraceGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def catalog():
    result = {}
    for index in range(40):
        zone = Name.from_text(f"z{index}.test")
        result[zone] = [zone.child("www"), zone.child("mail"), zone.child("ftp")]
    return result


def small_config(**overrides):
    defaults = dict(duration_days=2.0, queries_per_day=2000, num_clients=20)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestGeneration:
    def test_deterministic_for_same_seed(self, catalog):
        first = TraceGenerator(catalog, small_config(), seed=5).generate("T")
        second = TraceGenerator(catalog, small_config(), seed=5).generate("T")
        assert len(first) == len(second)
        assert all(
            a.qname == b.qname and a.time == b.time
            for a, b in zip(first, second)
        )

    def test_streams_decorrelate(self, catalog):
        generator = TraceGenerator(catalog, small_config(), seed=5)
        one = generator.generate("T1", stream=1)
        two = generator.generate("T2", stream=2)
        assert [q.qname for q in one.queries[:50]] != [q.qname for q in two.queries[:50]]

    def test_trace_is_valid(self, catalog):
        trace = TraceGenerator(catalog, small_config(), seed=1).generate("T")
        trace.validate_ordering()
        assert trace.duration == 2.0 * DAY

    def test_volume_near_expectation(self, catalog):
        config = small_config(duration_days=4.0, queries_per_day=3000)
        trace = TraceGenerator(catalog, config, seed=2).generate("T")
        expected = 4.0 * 3000
        assert abs(len(trace) - expected) < 5 * math.sqrt(expected)

    def test_names_come_from_catalog(self, catalog):
        trace = TraceGenerator(catalog, small_config(), seed=3).generate("T")
        hosts = {host for hosts in catalog.values() for host in hosts}
        assert all(query.qname in hosts for query in trace)

    def test_client_ids_in_range(self, catalog):
        config = small_config(num_clients=7)
        trace = TraceGenerator(catalog, config, seed=4).generate("T")
        assert {query.client_id for query in trace} <= set(range(7))

    def test_qtype_mix_roughly_respected(self, catalog):
        trace = TraceGenerator(catalog, small_config(), seed=6).generate("T")
        a_share = sum(1 for q in trace if q.rrtype is RRType.A) / len(trace)
        assert 0.90 < a_share < 0.98

    def test_zipf_popularity_is_skewed(self, catalog):
        trace = TraceGenerator(catalog, small_config(), seed=7).generate("T")
        counts = {}
        for query in trace:
            zone = query.qname.parent()
            counts[zone] = counts.get(zone, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # Top zone should dwarf the median zone under Zipf ~1.15.
        assert ranked[0] > 5 * ranked[len(ranked) // 2]

    def test_diurnal_modulation_visible(self, catalog):
        config = small_config(duration_days=4.0, queries_per_day=6000,
                              diurnal_amplitude=0.8)
        trace = TraceGenerator(catalog, config, seed=8).generate("T")
        night = sum(1 for q in trace if (q.time % DAY) < DAY / 4)
        day = sum(1 for q in trace if DAY / 2 <= (q.time % DAY) < 3 * DAY / 4)
        assert day > 1.5 * night

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            TraceGenerator({}, small_config())

    def test_catalog_without_any_host_rejected(self):
        empty = {Name.from_text("a.test"): [], Name.from_text("b.test"): []}
        with pytest.raises(ValueError, match="catalog has no queryable hosts"):
            TraceGenerator(empty, small_config())

    def test_hostless_zones_are_never_queried(self, catalog):
        hostless = [Name.from_text(f"empty{index}.test") for index in range(20)]
        mixed = {**catalog, **{zone: [] for zone in hostless}}
        generator = TraceGenerator(mixed, small_config(), seed=3)
        assert not set(hostless) & set(generator._zones)
        trace = generator.generate("T")
        hosts = {host for hosts in catalog.values() for host in hosts}
        assert len(trace) > 0 and all(query.qname in hosts for query in trace)


class TestCdfTail:
    """A Zipf CDF's float sum can stop short of 1.0; the largest draw must
    still land on the last rank, not one past it."""

    TOP_DRAW = np.nextafter(1.0, 0.0)

    @pytest.fixture(scope="class")
    def generator(self):
        scenario = make_scenario(Scale.SMALL, seed=7)
        return TraceGenerator(scenario.built.catalog, WorkloadConfig(), seed=7)

    def test_every_cdf_ends_at_exactly_one(self, generator):
        cdfs = [generator._zone_cdf, *generator._host_cdfs.values()]
        assert len(cdfs) > 5
        for cdf in cdfs:
            assert cdf[-1] == 1.0
            assert np.searchsorted(cdf, self.TOP_DRAW) == len(cdf) - 1
            assert np.all(np.diff(cdf) > 0)

    def test_top_draw_picks_each_zones_last_host(self, generator):
        zones = np.arange(len(generator._zones))
        draws = np.full(len(zones), self.TOP_DRAW)
        picked = generator._flat_hosts[generator._host_positions(zones, draws)]
        assert picked.tolist() == [hosts[-1] for hosts in generator._hosts]


class TestConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            WorkloadConfig(duration_days=0)

    def test_bad_clients(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_clients=0)

    def test_bad_shared_fraction(self):
        with pytest.raises(ValueError):
            WorkloadConfig(shared_interest_fraction=1.5)

    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            WorkloadConfig(diurnal_amplitude=1.0)

    def test_qtype_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadConfig(qtype_mix=((RRType.A, 0.5),))

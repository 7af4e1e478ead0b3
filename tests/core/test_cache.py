"""Unit + property tests for the ranked TTL cache."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import DnsCache, NegativeVerdict, split_key
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType


def a_set(owner="www.x.test", ttl=300.0, address="10.0.0.1"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(owner), RRType.A, ttl, address)]
    )


def ns_set(zone="x.test", ttl=3600.0, server="ns1.x.test"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(zone), RRType.NS, ttl,
                        Name.from_text(server))]
    )


class TestBasicLifecycle:
    def test_put_get(self):
        cache = DnsCache()
        cache.put(a_set(), Rank.AUTH_ANSWER, now=0.0)
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 100.0) is not None

    def test_expiry(self):
        cache = DnsCache()
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=0.0)
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 299.9) is not None
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 300.0) is None

    def test_stale_still_readable(self):
        cache = DnsCache()
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=0.0)
        assert cache.get_stale(Name.from_text("www.x.test"), RRType.A, 999.0) is not None

    def test_expires_at(self):
        cache = DnsCache()
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=10.0)
        assert cache.expires_at(Name.from_text("www.x.test"), RRType.A, 20.0) == 310.0
        assert cache.expires_at(Name.from_text("www.x.test"), RRType.A, 400.0) is None

    def test_remove(self):
        cache = DnsCache()
        cache.put(a_set(), Rank.AUTH_ANSWER, now=0.0)
        assert cache.remove(Name.from_text("www.x.test"), RRType.A)
        assert not cache.remove(Name.from_text("www.x.test"), RRType.A)
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 0.0) is None

    def test_max_effective_ttl_caps_lifetime(self):
        cache = DnsCache(max_effective_ttl=100.0)
        cache.put(a_set(ttl=10_000), Rank.AUTH_ANSWER, now=0.0)
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 99.0) is not None
        assert cache.get(Name.from_text("www.x.test"), RRType.A, 101.0) is None
        # published_ttl preserves the original value for gap analysis
        entry = cache.entry(Name.from_text("www.x.test"), RRType.A)
        assert entry.published_ttl == 10_000


class TestRanking:
    def test_higher_rank_replaces(self):
        cache = DnsCache()
        cache.put(a_set(address="10.0.0.1"), Rank.ADDITIONAL, now=0.0)
        result = cache.put(a_set(address="10.0.0.2"), Rank.AUTH_ANSWER, now=0.0)
        assert result.stored
        cached = cache.get(Name.from_text("www.x.test"), RRType.A, 1.0)
        assert cached.data_values() == ("10.0.0.2",)

    def test_lower_rank_ignored(self):
        cache = DnsCache()
        cache.put(a_set(address="10.0.0.1"), Rank.AUTH_ANSWER, now=0.0)
        result = cache.put(a_set(address="10.0.0.2"), Rank.ADDITIONAL, now=0.0)
        assert not result.stored
        cached = cache.get(Name.from_text("www.x.test"), RRType.A, 1.0)
        assert cached.data_values() == ("10.0.0.1",)

    def test_lower_rank_accepted_after_expiry(self):
        cache = DnsCache()
        cache.put(a_set(ttl=10, address="10.0.0.1"), Rank.AUTH_ANSWER, now=0.0)
        result = cache.put(a_set(address="10.0.0.2"), Rank.ADDITIONAL, now=20.0)
        assert result.stored
        assert result.replaced_expired
        assert result.previous_expiry == 10.0

    def test_child_irrs_replace_parent_copy(self):
        # The exact RFC 2181 scenario from the paper.
        cache = DnsCache()
        cache.put(ns_set(ttl=100), Rank.NON_AUTH_AUTHORITY, now=0.0)
        result = cache.put(ns_set(ttl=3600), Rank.AUTH_AUTHORITY, now=0.0)
        assert result.stored
        assert cache.expires_at(Name.from_text("x.test"), RRType.NS, 0.0) == 3600.0


class TestRefreshSemantics:
    def test_vanilla_same_data_does_not_restart_ttl(self):
        cache = DnsCache()
        cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        result = cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=50.0)
        assert not result.stored
        assert cache.expires_at(Name.from_text("x.test"), RRType.NS, 50.0) == 100.0

    def test_refresh_restarts_ttl(self):
        cache = DnsCache()
        cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        result = cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=50.0,
                           refresh=True)
        assert result.stored
        assert result.refreshed
        assert cache.expires_at(Name.from_text("x.test"), RRType.NS, 50.0) == 150.0

    def test_changed_data_replaces_even_without_refresh(self):
        cache = DnsCache()
        cache.put(ns_set(server="ns1.x.test", ttl=100), Rank.AUTH_AUTHORITY, 0.0)
        result = cache.put(ns_set(server="ns2.x.test", ttl=100),
                           Rank.AUTH_AUTHORITY, 50.0)
        assert result.stored
        assert not result.refreshed
        cached = cache.get(Name.from_text("x.test"), RRType.NS, 60.0)
        assert str(cached.records[0].data) == "ns2.x.test."


class TestNegativeCache:
    def test_negative_roundtrip(self):
        cache = DnsCache()
        cache.put_negative(Name.from_text("ghost.x.test"), RRType.A, 0.0, 300.0)
        assert cache.get_negative(Name.from_text("ghost.x.test"), RRType.A, 299.0)
        assert not cache.get_negative(Name.from_text("ghost.x.test"), RRType.A, 301.0)

    def test_negative_is_per_type(self):
        cache = DnsCache()
        cache.put_negative(Name.from_text("a.x.test"), RRType.MX, 0.0, 300.0)
        assert not cache.get_negative(Name.from_text("a.x.test"), RRType.A, 10.0)

    def test_negative_entry_hands_back_its_verdict(self):
        cache = DnsCache()
        host = Name.from_text("a.x.test")
        cache.put_negative(host, RRType.MX, 0.0, 300.0, NegativeVerdict.NODATA)
        cache.put_negative(host, RRType.A, 0.0, 300.0)
        assert cache.get_negative(host, RRType.MX, 299.0) is NegativeVerdict.NODATA
        assert cache.get_negative(host, RRType.A, 299.0) is NegativeVerdict.NXDOMAIN
        assert cache.get_negative(host, RRType.MX, 300.0) is None
        # A later answer under the same key replaces verdict and countdown.
        cache.put_negative(host, RRType.MX, 300.0, 50.0, NegativeVerdict.NXDOMAIN)
        assert cache.get_negative(host, RRType.MX, 349.0) is NegativeVerdict.NXDOMAIN


class TestZoneViews:
    def test_zone_ns_expiry(self):
        cache = DnsCache()
        cache.put(ns_set(ttl=500), Rank.AUTH_AUTHORITY, now=0.0)
        assert cache.zone_ns_expiry(Name.from_text("x.test"), 10.0) == 500.0
        assert cache.zone_ns_expiry(Name.from_text("x.test"), 600.0) is None

    def test_best_zone_prefers_deepest(self):
        cache = DnsCache()
        cache.put(ns_set(zone="test", server="ns1.test"), Rank.AUTH_AUTHORITY, 0.0)
        cache.put(ns_set(zone="x.test", server="ns1.x.test"), Rank.AUTH_AUTHORITY, 0.0)
        best = cache.best_zone_for(Name.from_text("www.x.test"), 10.0)
        assert best == Name.from_text("x.test")

    def test_best_zone_skips_expired(self):
        cache = DnsCache()
        cache.put(ns_set(zone="test", server="ns1.test", ttl=9999),
                  Rank.AUTH_AUTHORITY, 0.0)
        cache.put(ns_set(zone="x.test", server="ns1.x.test", ttl=10),
                  Rank.AUTH_AUTHORITY, 0.0)
        best = cache.best_zone_for(Name.from_text("www.x.test"), 100.0)
        assert best == Name.from_text("test")

    def test_best_zone_allows_stale_when_asked(self):
        cache = DnsCache()
        cache.put(ns_set(zone="x.test", server="ns1.x.test", ttl=10),
                  Rank.AUTH_AUTHORITY, 0.0)
        assert cache.best_zone_for(Name.from_text("www.x.test"), 100.0) is None
        stale = cache.best_zone_for(Name.from_text("www.x.test"), 100.0,
                                    allow_stale=True)
        assert stale == Name.from_text("x.test")

    def test_best_zone_respects_exclusion(self):
        cache = DnsCache()
        cache.put(ns_set(zone="x.test", server="ns1.x.test"), Rank.AUTH_AUTHORITY, 0.0)
        best = cache.best_zone_for(
            Name.from_text("www.x.test"), 1.0,
            exclude={Name.from_text("x.test")},
        )
        assert best is None

    def test_best_zone_returns_none_for_root_only(self):
        cache = DnsCache()
        assert cache.best_zone_for(Name.from_text("a.b.c"), 0.0) is None


class TestOccupancy:
    def test_live_counts(self):
        cache = DnsCache()
        cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        cache.put(a_set(ttl=10), Rank.AUTH_ANSWER, now=0.0)
        assert cache.live_entry_count(5.0) == 2
        assert cache.live_entry_count(50.0) == 1
        assert cache.live_zone_count(5.0) == 1
        assert cache.live_record_count(5.0) == 2

    def test_purge_expired(self):
        cache = DnsCache()
        cache.put(a_set(ttl=10), Rank.AUTH_ANSWER, now=0.0)
        cache.put(ns_set(ttl=1000), Rank.AUTH_AUTHORITY, now=0.0)
        removed = cache.purge_expired(now=500.0)
        assert removed == 1
        assert cache.total_entry_count() == 1


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000, allow_nan=False),  # put time
                st.floats(min_value=1, max_value=1000, allow_nan=False),  # ttl
                st.sampled_from(list(Rank)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_entry_never_live_beyond_its_ttl(self, puts):
        cache = DnsCache()
        owner = Name.from_text("p.x.test")
        last_time = 0.0
        for put_time, ttl, rank in sorted(puts, key=lambda item: item[0]):
            cache.put(a_set(owner="p.x.test", ttl=ttl), rank, now=put_time)
            last_time = put_time
            entry = cache.entry(owner, RRType.A)
            # Invariant: whatever happened, the live window never exceeds
            # the stored rrset's TTL from its storage time.
            assert entry.expires_at <= entry.stored_at + entry.rrset.ttl + 1e-9
        # And a get far in the future is always a miss.
        assert cache.get(owner, RRType.A, last_time + 2000.0) is None

    @given(st.floats(min_value=1, max_value=10_000, allow_nan=False))
    def test_get_respects_exact_expiry(self, ttl):
        cache = DnsCache()
        cache.put(a_set(ttl=ttl), Rank.AUTH_ANSWER, now=0.0)
        owner = Name.from_text("www.x.test")
        assert cache.get(owner, RRType.A, ttl * 0.999) is not None
        assert cache.get(owner, RRType.A, ttl) is None


class TestServeStaleBound:
    """get_stale's optional max_stale bound (bounded serve-stale)."""

    def setup_method(self):
        self.cache = DnsCache()
        self.cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=0.0)
        self.owner = Name.from_text("www.x.test")

    def test_unbounded_by_default(self):
        assert self.cache.get_stale(self.owner, RRType.A, 1e9) is not None

    def test_within_bound_served(self):
        # Expired at 300; 3000 s later is within a 3600 s bound.
        assert self.cache.get_stale(
            self.owner, RRType.A, 3300.0, max_stale=3600.0
        ) is not None

    def test_beyond_bound_refused(self):
        assert self.cache.get_stale(
            self.owner, RRType.A, 300.0 + 3600.1, max_stale=3600.0
        ) is None

    def test_live_entry_unaffected_by_bound(self):
        assert self.cache.get_stale(
            self.owner, RRType.A, 100.0, max_stale=0.0
        ) is not None

    def test_unknown_name_still_none(self):
        assert self.cache.get_stale(
            Name.from_text("nope.x.test"), RRType.A, 10.0, max_stale=60.0
        ) is None


def _scan_counts(cache: DnsCache, now: float) -> tuple[int, int, int]:
    """Brute-force (entries, records, zones) oracle over the raw store."""
    live = [
        (key, entry)
        for key, entry in cache._entries.items()  # repro: ignore[REP008]
        if entry.is_live(now)
    ]
    return (
        len(live),
        sum(len(entry.rrset) for _, entry in live),
        sum(1 for key, _ in live if split_key(key)[1] == RRType.NS),
    )


def _assert_counts_match(cache: DnsCache, now: float):
    expected = _scan_counts(cache, now)
    got = (
        cache.live_entry_count(now),
        cache.live_record_count(now),
        cache.live_zone_count(now),
    )
    assert got == expected


class TestOccupancyAgainstScan:
    """The occupancy contract: the live counts agree with a brute-force
    scan of the raw store at any probe time, probed in any order."""

    def test_expiry_decrements(self):
        cache = DnsCache()
        cache.put(a_set(ttl=10), Rank.AUTH_ANSWER, now=0.0)
        cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        for now in (0.0, 5.0, 10.0, 50.0, 100.0, 200.0):
            _assert_counts_match(cache, now)
        assert cache.live_entry_count(200.0) == 0

    def test_multi_record_sets_counted_fully(self):
        cache = DnsCache()
        rrset = RRset.from_records([
            ResourceRecord(Name.from_text("lb.x.test"), RRType.A, 60.0,
                           "10.0.0.1"),
            ResourceRecord(Name.from_text("lb.x.test"), RRType.A, 60.0,
                           "10.0.0.2"),
        ])
        cache.put(rrset, Rank.AUTH_ANSWER, now=0.0)
        assert cache.live_record_count(1.0) == 2
        _assert_counts_match(cache, 1.0)
        _assert_counts_match(cache, 61.0)

    def test_refresh_overwrite_does_not_double_count(self):
        cache = DnsCache()
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=0.0)
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=100.0, refresh=True)
        assert cache.live_entry_count(150.0) == 1
        _assert_counts_match(cache, 150.0)
        # The refreshed expiry (400), not the original one (300), rules.
        assert cache.live_entry_count(350.0) == 1
        _assert_counts_match(cache, 350.0)
        _assert_counts_match(cache, 400.0)
        assert cache.live_entry_count(400.0) == 0

    def test_remove_decrements(self):
        cache = DnsCache()
        cache.put(a_set(ttl=300), Rank.AUTH_ANSWER, now=0.0)
        cache.put(ns_set(ttl=300), Rank.AUTH_AUTHORITY, now=0.0)
        cache.remove(Name.from_text("x.test"), RRType.NS)
        _assert_counts_match(cache, 10.0)
        assert cache.live_zone_count(10.0) == 0

    def test_eviction_decrements(self):
        cache = DnsCache(max_entries=2)
        for index in range(5):
            cache.put(a_set(owner=f"h{index}.x.test", ttl=300),
                      Rank.AUTH_ANSWER, now=float(index))
            _assert_counts_match(cache, float(index))
        assert cache.live_entry_count(5.0) == 2

    def test_purge_keeps_counts_consistent(self):
        cache = DnsCache()
        cache.put(a_set(ttl=10), Rank.AUTH_ANSWER, now=0.0)
        cache.put(ns_set(ttl=1000), Rank.AUTH_AUTHORITY, now=0.0)
        cache.purge_expired(now=500.0)
        _assert_counts_match(cache, 500.0)
        assert cache.live_entry_count(500.0) == 1

    def test_time_running_backwards_falls_back_to_scan(self):
        cache = DnsCache()
        cache.put(a_set(ttl=10), Rank.AUTH_ANSWER, now=0.0)
        cache.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        assert cache.live_entry_count(50.0) == 1
        # Asking about the past afterwards must still be exact.
        assert cache.live_entry_count(5.0) == 2
        assert cache.live_record_count(5.0) == 2
        assert cache.live_zone_count(5.0) == 1
        # And monotone queries keep working afterwards.
        _assert_counts_match(cache, 60.0)
        _assert_counts_match(cache, 120.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),   # owner index
                st.floats(min_value=1, max_value=90, allow_nan=False),  # ttl
                st.booleans(),                           # NS instead of A
            ),
            min_size=1,
            max_size=25,
        ),
        st.lists(
            st.floats(min_value=0, max_value=200, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_counts_always_match_scan(self, puts, probes):
        cache = DnsCache()
        for step, (owner, ttl, is_ns) in enumerate(puts):
            now = step * 3.0
            if is_ns:
                cache.put(ns_set(zone=f"z{owner}.test", ttl=ttl),
                          Rank.AUTH_AUTHORITY, now=now)
            else:
                cache.put(a_set(owner=f"h{owner}.x.test", ttl=ttl),
                          Rank.AUTH_ANSWER, now=now)
        for now in probes:  # deliberately unsorted
            _assert_counts_match(cache, now)


class TestLruRecencyOnOverwrite:
    """Replace/refresh stores must land at the MRU end of a bounded
    cache; the old in-place overwrite kept the stale position and the
    next eviction dropped the entry that had just been rewritten."""

    def test_refresh_moves_entry_to_mru(self):
        cache = DnsCache(max_entries=2)
        cache.put(a_set(owner="a.x.test"), Rank.AUTH_ANSWER, now=0.0)
        cache.put(a_set(owner="b.x.test"), Rank.AUTH_ANSWER, now=1.0)
        cache.put(a_set(owner="a.x.test"), Rank.AUTH_ANSWER, now=2.0,
                  refresh=True)
        cache.put(a_set(owner="c.x.test"), Rank.AUTH_ANSWER, now=3.0)
        # `b` was the coldest entry; the refreshed `a` must survive.
        assert cache.get(Name.from_text("a.x.test"), RRType.A, 4.0) is not None
        assert cache.get(Name.from_text("b.x.test"), RRType.A, 4.0) is None

    def test_data_change_moves_entry_to_mru(self):
        cache = DnsCache(max_entries=2)
        cache.put(a_set(owner="a.x.test", address="10.0.0.1"),
                  Rank.AUTH_ANSWER, now=0.0)
        cache.put(a_set(owner="b.x.test"), Rank.AUTH_ANSWER, now=1.0)
        cache.put(a_set(owner="a.x.test", address="10.0.0.9"),
                  Rank.AUTH_ANSWER, now=2.0)
        cache.put(a_set(owner="c.x.test"), Rank.AUTH_ANSWER, now=3.0)
        assert cache.get(Name.from_text("a.x.test"), RRType.A, 4.0) is not None
        assert cache.get(Name.from_text("b.x.test"), RRType.A, 4.0) is None

    def test_tombstone_overwrite_is_a_fresh_use(self):
        cache = DnsCache(max_entries=2)
        cache.put(a_set(owner="a.x.test", ttl=1.0), Rank.AUTH_ANSWER, now=0.0)
        cache.put(a_set(owner="b.x.test", ttl=100.0), Rank.AUTH_ANSWER,
                  now=0.5)
        # `a` lapsed at t=1; restoring it over its tombstone is a use.
        cache.put(a_set(owner="a.x.test", ttl=100.0), Rank.AUTH_ANSWER,
                  now=2.0)
        cache.put(a_set(owner="c.x.test", ttl=100.0), Rank.AUTH_ANSWER,
                  now=3.0)
        assert cache.get(Name.from_text("a.x.test"), RRType.A, 4.0) is not None
        assert cache.get(Name.from_text("b.x.test"), RRType.A, 4.0) is None

    def test_unbounded_cache_skips_reorder_bookkeeping(self):
        # No eviction means recency is unobservable; the overwrite path
        # must still behave identically API-wise.
        cache = DnsCache()
        cache.put(a_set(ttl=100.0), Rank.AUTH_ANSWER, now=0.0)
        result = cache.put(a_set(ttl=100.0), Rank.AUTH_ANSWER, now=10.0,
                           refresh=True)
        assert result.stored and result.refreshed
        assert cache.expires_at(Name.from_text("www.x.test"), RRType.A,
                                10.0) == 110.0


class TestNegativeCacheAccounting:
    """Negative entries occupy memory: they must be counted, purgeable,
    and cleared by remove() along with the positive entry."""

    def test_negative_counts_toward_total(self):
        cache = DnsCache()
        cache.put(a_set(), Rank.AUTH_ANSWER, now=0.0)
        cache.put_negative(Name.from_text("ghost.x.test"), RRType.A, 0.0, 60.0)
        assert cache.total_entry_count() == 2

    def test_purge_drops_lapsed_negatives(self):
        cache = DnsCache()
        cache.put_negative(Name.from_text("ghost.x.test"), RRType.A, 0.0, 10.0)
        cache.put_negative(Name.from_text("fresh.x.test"), RRType.MX, 0.0,
                           500.0)
        removed = cache.purge_expired(now=100.0)
        assert removed == 1
        assert cache.total_entry_count() == 1
        assert cache.get_negative(Name.from_text("fresh.x.test"), RRType.MX,
                                  100.0)

    def test_purge_respects_older_than_for_negatives(self):
        cache = DnsCache()
        cache.put_negative(Name.from_text("ghost.x.test"), RRType.A, 0.0, 10.0)
        assert cache.purge_expired(now=50.0, older_than=100.0) == 0
        assert cache.purge_expired(now=200.0, older_than=100.0) == 1

    def test_remove_clears_negative_verdict(self):
        cache = DnsCache()
        cache.put_negative(Name.from_text("www.x.test"), RRType.A, 0.0, 1000.0)
        assert cache.remove(Name.from_text("www.x.test"), RRType.A)
        assert not cache.get_negative(Name.from_text("www.x.test"), RRType.A,
                                      1.0)
        assert cache.total_entry_count() == 0

    def test_remove_clears_both_positive_and_negative(self):
        cache = DnsCache()
        cache.put(a_set(), Rank.AUTH_ANSWER, now=0.0)
        cache.put_negative(Name.from_text("www.x.test"), RRType.A, 0.0, 1000.0)
        assert cache.remove(Name.from_text("www.x.test"), RRType.A)
        assert cache.total_entry_count() == 0
        assert not cache.remove(Name.from_text("www.x.test"), RRType.A)

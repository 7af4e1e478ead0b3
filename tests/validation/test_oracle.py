"""The naive oracle must match the documented cache contract."""

from hypothesis import given, strategies as st

from repro.core.cache import DnsCache, NegativeVerdict
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.validation.differential import DifferentialCache
from repro.validation.oracle import OracleCache


def a_set(owner="www.x.test", ttl=300.0, address="10.0.0.1"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(owner), RRType.A, ttl, address)]
    )


def ns_set(zone="x.test", ttl=3600.0, server="ns1.x.test"):
    return RRset.from_records(
        [ResourceRecord(Name.from_text(zone), RRType.NS, ttl,
                        Name.from_text(server))]
    )


class TestOracleSemantics:
    """Spot-checks of the tricky contract points, oracle-only."""

    def test_vanilla_same_data_does_not_restart_ttl(self):
        oracle = OracleCache()
        oracle.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        result = oracle.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=50.0)
        assert not result.stored
        assert oracle.expires_at(Name.from_text("x.test"), RRType.NS,
                                 50.0) == 100.0

    def test_refresh_restarts_ttl(self):
        oracle = OracleCache()
        oracle.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=0.0)
        result = oracle.put(ns_set(ttl=100), Rank.AUTH_AUTHORITY, now=50.0,
                            refresh=True)
        assert result.stored and result.refreshed
        assert oracle.expires_at(Name.from_text("x.test"), RRType.NS,
                                 50.0) == 150.0

    def test_lower_rank_never_downgrades(self):
        oracle = OracleCache()
        oracle.put(a_set(address="10.0.0.1"), Rank.AUTH_ANSWER, now=0.0)
        assert not oracle.put(a_set(address="10.0.0.2"), Rank.ADDITIONAL,
                              now=0.0).stored

    def test_lru_eviction_order(self):
        oracle = OracleCache(max_entries=2)
        oracle.put(a_set(owner="a.x.test"), Rank.AUTH_ANSWER, now=0.0)
        oracle.put(a_set(owner="b.x.test"), Rank.AUTH_ANSWER, now=1.0)
        # Touch `a` so `b` becomes the eviction victim.
        assert oracle.get(Name.from_text("a.x.test"), RRType.A, 2.0)
        oracle.put(a_set(owner="c.x.test"), Rank.AUTH_ANSWER, now=3.0)
        assert oracle.get(Name.from_text("a.x.test"), RRType.A, 4.0)
        assert oracle.get(Name.from_text("b.x.test"), RRType.A, 4.0) is None
        assert oracle.evictions == 1

    def test_negative_entries_counted_purged_removed(self):
        oracle = OracleCache()
        ghost = Name.from_text("ghost.x.test")
        oracle.put_negative(ghost, RRType.A, 0.0, 10.0)
        assert oracle.total_entry_count() == 1
        assert oracle.get_negative(ghost, RRType.A, 5.0)
        assert oracle.purge_expired(now=100.0) == 1
        assert oracle.total_entry_count() == 0
        oracle.put_negative(ghost, RRType.A, 100.0, 50.0)
        assert oracle.remove(ghost, RRType.A)
        assert not oracle.get_negative(ghost, RRType.A, 101.0)

    def test_negative_entry_replays_the_verdict_it_was_filed_with(self):
        oracle = OracleCache()
        host = Name.from_text("www.x.test")
        oracle.put_negative(host, RRType.MX, 0.0, 10.0, NegativeVerdict.NODATA)
        oracle.put_negative(host, RRType.A, 0.0, 10.0)
        assert oracle.get_negative(host, RRType.MX, 9.0) is NegativeVerdict.NODATA
        assert oracle.get_negative(host, RRType.A, 9.0) is NegativeVerdict.NXDOMAIN
        assert oracle.get_negative(host, RRType.MX, 10.0) is None
        assert oracle.snapshot_negatives()[(host, RRType.MX)] == (
            10.0, NegativeVerdict.NODATA
        )

    def test_max_effective_ttl_caps_lifetime(self):
        oracle = OracleCache(max_effective_ttl=100.0)
        oracle.put(a_set(ttl=10_000), Rank.AUTH_ANSWER, now=0.0)
        owner = Name.from_text("www.x.test")
        assert oracle.get(owner, RRType.A, 99.0) is not None
        assert oracle.get(owner, RRType.A, 101.0) is None
        assert oracle.entry(owner, RRType.A).published_ttl == 10_000

    def test_best_zone_prefers_deepest_live(self):
        oracle = OracleCache()
        oracle.put(ns_set(zone="test", ttl=100), Rank.AUTH_AUTHORITY, 0.0)
        oracle.put(ns_set(zone="x.test", ttl=10), Rank.AUTH_AUTHORITY, 0.0)
        qname = Name.from_text("www.x.test")
        assert oracle.best_zone_for(qname, 5.0) == Name.from_text("x.test")
        # After the deep NS lapses the parent is the best live zone.
        assert oracle.best_zone_for(qname, 50.0) == Name.from_text("test")
        assert oracle.best_zone_for(qname, 50.0, allow_stale=True) \
            == Name.from_text("x.test")


_OWNERS = ("a.x.test", "b.x.test", "c.x.test", "d.x.test")


class TestLockstepEquivalence:
    """Property check: random op soups never diverge from the real cache.

    The DifferentialCache raises on the first disagreement, so "no
    exception" is the assertion.
    """

    @given(
        st.integers(min_value=0, max_value=3),  # capacity selector
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # owner index
                st.sampled_from(["put", "get", "refresh", "remove",
                                 "purge", "negative"]),
                st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    def test_random_ops_never_diverge(self, capacity_pick, steps):
        capacity = (None, 2, 3, 5)[capacity_pick]
        cache = DifferentialCache(max_entries=capacity)
        now = 0.0
        for owner_index, action, ttl in steps:
            now += 1.0
            owner = _OWNERS[owner_index]
            name = Name.from_text(owner)
            if action == "put":
                cache.put(a_set(owner=owner, ttl=ttl), Rank.AUTH_ANSWER, now)
            elif action == "refresh":
                cache.put(a_set(owner=owner, ttl=ttl), Rank.AUTH_ANSWER, now,
                          refresh=True)
            elif action == "get":
                cache.get(name, RRType.A, now)
            elif action == "remove":
                cache.remove(name, RRType.A)
            elif action == "purge":
                cache.purge_expired(now, older_than=ttl)
            else:
                cache.put_negative(name, RRType.A, now, ttl)
                cache.get_negative(name, RRType.A, now)
        cache.live_entry_count(now)
        cache.total_entry_count()
        cache.audit(now)

    def test_oracle_is_shared_api_subset(self):
        # Every public cache method the simulator calls must exist on
        # the oracle with the same name (lockstep dispatch relies on it).
        for method in ("put", "get", "get_stale", "entry", "expires_at",
                       "remove", "put_negative", "get_negative",
                       "zone_ns_expiry", "best_zone_for",
                       "live_entry_count", "live_record_count",
                       "live_zone_count", "total_entry_count",
                       "purge_expired"):
            assert callable(getattr(OracleCache, method))
            assert callable(getattr(DnsCache, method))

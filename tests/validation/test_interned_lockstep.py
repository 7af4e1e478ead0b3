"""Interned int keys vs the Name-keyed oracle, in lockstep.

The production :class:`DnsCache` indexes everything by packed int keys
derived from intern ids; the :class:`OracleCache` deliberately keys on
``(Name, RRType)`` tuples.  Driving both through the fuzz corpus proves
the int-keyed fast paths (identity no-op puts, in-place refresh) never
disagree with the naive semantics — and that the primary cache really
is running on ints, not quietly falling back.
"""

from repro.core.cache import cache_key
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.rrtypes import RRType
from repro.validation.differential import DifferentialCache
from repro.validation.fuzz import FuzzReport, apply_ops, make_rrset, run_fuzz


class TestInternedLockstep:
    def test_fuzz_corpus_green_under_differential_cache(self):
        """A healthy run means every op compared equal on both caches."""
        report = run_fuzz(rounds=25, seed=19, ops_per_round=120)
        assert report == FuzzReport(rounds=25, ops=3000, seed=19)

    def test_primary_cache_is_int_keyed(self):
        cache = DifferentialCache()
        ops = []
        for index in range(60):
            now = float(index)
            ops.append(("put", f"host{index % 7}.example.", RRType.A, 300.0,
                        Rank.AUTH_ANSWER, now, False,
                        f"192.0.2.{index % 250}"))
            ops.append(("get", f"host{index % 7}.example.", RRType.A, now))
            ops.append(("check", now))
        apply_ops(cache, ops)

        entries = cache._entries  # repro: ignore[REP008] — shape assertion
        assert entries, "ops populated nothing"
        for key, entry in entries.items():
            assert isinstance(key, int)
            assert key == cache_key(entry.rrset.name, entry.rrset.rrtype)
            # The oracle resolves the same logical key through Names.
            oracle_entry = cache.oracle.entry(entry.rrset.name,
                                              entry.rrset.rrtype)
            assert oracle_entry is not None
            assert oracle_entry.rrset == entry.rrset

    def test_refresh_fast_path_stays_in_lockstep(self):
        """Re-putting the identical rrset with refresh exercises the
        in-place fast path; the oracle must see the same expiry math."""
        cache = DifferentialCache()
        rrset = make_rrset("fast.example.", RRType.NS, 600.0,
                           "ns1.fast.example.")
        name = Name.from_text("fast.example.")
        cache.put(rrset, Rank.AUTH_AUTHORITY, 0.0)
        for step in range(1, 6):
            now = step * 100.0
            cache.put(rrset, Rank.AUTH_AUTHORITY, now, refresh=True)
            assert cache.get(name, RRType.NS, now) is rrset
            entry = cache.entry(name, RRType.NS)
            assert entry is not None and entry.stored_at == now

    def test_identity_noop_put_stays_in_lockstep(self):
        """The memoised no-op PutResult must match the oracle's verdict
        on every repeat."""
        cache = DifferentialCache()
        rrset = make_rrset("noop.example.", RRType.A, 900.0, "192.0.2.9")
        name = Name.from_text("noop.example.")
        first = cache.put(rrset, Rank.AUTH_ANSWER, 0.0)
        assert first.stored
        for step in range(1, 6):
            result = cache.put(rrset, Rank.AUTH_ANSWER, float(step))
            assert not result.stored
            assert cache.get(name, RRType.A, float(step)) is rrset

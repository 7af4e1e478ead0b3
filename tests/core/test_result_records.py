"""The per-operation result records' contract.

`Resolution`, `PutResult` and `QueryResult` are built once per stub
query / put / upstream exchange, so they are ``NamedTuple``s (filled by
``tuple.__new__`` in one C call).  What their users lean on is pinned
here: field order (the oracle and ``put``'s early returns build
``PutResult`` positionally), keyword construction and defaults,
immutability, value equality (the differential cache compares primary
and oracle results with ``==``) and pickling, all as the frozen
dataclasses they replaced had them.
"""

import pickle

import pytest

from repro.core.cache import DnsCache, PutResult
from repro.core.caching_server import Resolution, ResolutionOutcome
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.ranking import Rank
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.simulation.network import QueryResult


def a_set(ttl=300.0):
    return RRset.from_records(
        [ResourceRecord(Name.from_text("www.x.test"), RRType.A, ttl, "10.0.0.1")]
    )


RECORDS = [
    (
        PutResult,
        ("stored", "refreshed", "replaced_expired", "previous_expiry",
         "previous_published_ttl", "expires_at"),
        PutResult(True, False, True, 5.0, 300.0, 305.0),
    ),
    (Resolution, ("outcome", "answer"),
     Resolution(ResolutionOutcome.CACHE_HIT, a_set())),
    (
        QueryResult,
        ("message", "latency", "dropped_by", "timed_out"),
        QueryResult(None, 2.0, dropped_by="loss", timed_out=True),
    ),
]


@pytest.mark.parametrize(
    "record_type, fields, sample", RECORDS,
    ids=[record_type.__name__ for record_type, _, _ in RECORDS],
)
class TestRecordShape:
    def test_field_order(self, record_type, fields, sample):
        assert record_type._fields == fields

    def test_positional_and_keyword_construction_agree(
        self, record_type, fields, sample
    ):
        by_keyword = record_type(**dict(zip(fields, sample)))
        assert by_keyword == sample
        assert hash(by_keyword) == hash(sample)
        assert [getattr(by_keyword, field) for field in fields] == list(sample)

    def test_attribute_assignment_raises(self, record_type, fields, sample):
        with pytest.raises(AttributeError):
            setattr(sample, fields[0], None)
        with pytest.raises(AttributeError):
            sample.extra = 1

    def test_pickle_round_trip(self, record_type, fields, sample):
        restored = pickle.loads(pickle.dumps(sample))
        assert type(restored) is record_type
        assert restored == sample


class TestDefaultsAndProperties:
    def test_query_result_defaults(self):
        lost = QueryResult(None, 2.0, timed_out=True)
        assert lost == QueryResult(None, 2.0, None, True)
        assert not lost.answered
        lame = QueryResult(None, 0.04)
        assert (lame.dropped_by, lame.timed_out) == (None, False)
        message = Message(Question(Name.from_text("www.x.test"), RRType.A))
        assert QueryResult(message, 0.04).answered

    def test_resolution_defaults_and_failed(self):
        for outcome in ResolutionOutcome:
            resolution = Resolution(outcome)
            assert resolution.answer is None
            assert resolution.failed is outcome.failed

    def test_only_the_two_failures_fail(self):
        failed = {outcome for outcome in ResolutionOutcome if outcome.failed}
        assert failed == {
            ResolutionOutcome.FAILURE, ResolutionOutcome.VALIDATION_FAILURE,
        }
        assert all(type(outcome.failed) is bool for outcome in ResolutionOutcome)
        assert ResolutionOutcome("failure") is ResolutionOutcome.FAILURE
        assert pickle.loads(pickle.dumps(ResolutionOutcome.NODATA)) \
            is ResolutionOutcome.NODATA

    def test_put_result_has_no_defaults(self):
        with pytest.raises(TypeError):
            PutResult(True, False, False)


class TestNoopResultMemo:
    def test_identity_reoffer_returns_the_identical_result(self):
        cache = DnsCache()
        rrset = a_set()
        first = cache.put(rrset, Rank.AUTH_ANSWER, 0.0)
        assert first == PutResult(True, False, False, None, None, 300.0)
        noop = cache.put(rrset, Rank.AUTH_ANSWER, 1.0)
        assert noop == PutResult(False, False, False, 300.0, 300.0, 300.0)
        entry = cache.entry(rrset.name, RRType.A)
        assert entry.noop_result is noop
        assert cache.put(rrset, Rank.AUTH_ANSWER, 2.0) is noop
        # A refresh moves the expiry, so the memo is dropped and rebuilt.
        cache.put(rrset, Rank.AUTH_ANSWER, 3.0, refresh=True)
        assert entry.noop_result is None
        rebuilt = cache.put(rrset, Rank.AUTH_ANSWER, 4.0)
        assert rebuilt is not noop
        assert rebuilt == PutResult(False, False, False, 303.0, 300.0, 303.0)

"""``reply_for``: every resolution outcome's rcode and answer.

The mapping from a core resolution to what goes on the wire is one pure
function, shared by the UDP and TCP paths; one test per
:class:`ResolutionOutcome` member pins what each outcome sends.
"""

from __future__ import annotations

import pytest

from repro.core.caching_server import Resolution, ResolutionOutcome
from repro.dns.message import Rcode
from repro.dns.name import Name
from repro.dns.records import ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.serve.server import Reply, reply_for

_HOST = Name.from_text("www.z47.biz.")
_ANSWER = RRset.from_records([ResourceRecord(_HOST, RRType.A, 300, "10.0.1.7")])

#: outcome -> (answer the core hands over, rcode sent, answer sent)
_EXPECTED = {
    ResolutionOutcome.CACHE_HIT: (_ANSWER, Rcode.NOERROR, _ANSWER),
    ResolutionOutcome.ANSWERED: (_ANSWER, Rcode.NOERROR, _ANSWER),
    ResolutionOutcome.STALE_HIT: (_ANSWER, Rcode.NOERROR, _ANSWER),
    ResolutionOutcome.NODATA: (None, Rcode.NOERROR, None),
    ResolutionOutcome.NXDOMAIN: (None, Rcode.NXDOMAIN, None),
    ResolutionOutcome.FAILURE: (None, Rcode.SERVFAIL, None),
    ResolutionOutcome.VALIDATION_FAILURE: (None, Rcode.SERVFAIL, None),
}


def test_every_outcome_has_a_case():
    assert set(_EXPECTED) == set(ResolutionOutcome)


@pytest.mark.parametrize(
    "outcome", list(ResolutionOutcome), ids=[m.name for m in ResolutionOutcome]
)
def test_reply_for(outcome: ResolutionOutcome):
    answer, rcode, sent = _EXPECTED[outcome]
    reply = reply_for(Resolution(outcome, answer))
    assert reply == Reply(rcode, sent)
    assert reply.rcode is rcode
    assert reply.answer is sent


@pytest.mark.parametrize(
    "outcome",
    [ResolutionOutcome.NXDOMAIN, ResolutionOutcome.FAILURE,
     ResolutionOutcome.VALIDATION_FAILURE],
    ids=["NXDOMAIN", "FAILURE", "VALIDATION_FAILURE"],
)
def test_an_answer_beside_a_negative_outcome_is_not_sent(outcome):
    """Only the outcome decides whether an answer goes out."""
    assert reply_for(Resolution(outcome, _ANSWER)).answer is None

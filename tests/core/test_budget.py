"""Tests for the per-query fetch budget (the NXNS work limit).

``ResilienceConfig.fetch_budget`` caps the NS-address sub-resolutions
one top-level query may trigger.  The caching server counts them and
refuses the next one at the cap; each new top-level query starts with
the whole budget again.
"""

import pytest

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.hierarchy.builder import graft_attacker_zone
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network

from tests.helpers import build_mini_internet, name


def resolver(budget):
    """A resolver with fetch budget ``budget`` over the mini internet, with
    an attacker zone whose referrals name three glue-less servers."""
    mini = build_mini_internet()
    graft = graft_attacker_zone(mini.tree, fan_out=3, delegations=1)
    config = ResilienceConfig.vanilla().with_defenses(fetch_budget=budget)
    server = CachingServer(
        mini.tree.root_hints(), Network(mini.tree), SimulationEngine(), config
    )
    return server, graft.apex.child("s0").child("q0")


class TestFetchBudget:
    @pytest.mark.parametrize("limit", [0, -3])
    def test_nonpositive_limit_rejected(self, limit):
        with pytest.raises(ValueError):
            ResilienceConfig.vanilla().with_defenses(fetch_budget=limit)

    def test_spend_until_exhausted(self):
        server, qname = resolver(2)
        server.handle_attack_query(qname, RRType.A, 0.0)
        assert server._fetch_spent == 2
        assert server.metrics.budget_exhaustions > 0

    def test_reset_returns_the_whole_budget(self):
        server, qname = resolver(1)
        server.handle_attack_query(qname, RRType.A, 0.0)
        exhaustions = server.metrics.budget_exhaustions
        assert exhaustions > 0
        # hosted.test's servers are glue-less: the lookup needs one
        # sub-resolution, which a fresh budget of one allows.
        resolution = server.handle_stub_query(
            name("www.hosted.test."), RRType.A, 1.0
        )
        assert not resolution.failed
        assert server._fetch_spent == 1
        # Exhaustion history survives the reset (it is the metric).
        assert server.metrics.budget_exhaustions == exhaustions

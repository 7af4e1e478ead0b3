"""Shared fixtures: the mini hand-built internet and a resolver stack."""

from __future__ import annotations

import pytest

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.dns.dnssec import sign_irrs
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network

from tests.helpers import MiniInternet, build_mini_internet, name


@pytest.fixture
def mini() -> MiniInternet:
    """A fresh hand-built miniature hierarchy."""
    return build_mini_internet()


@pytest.fixture
def signed_mini() -> MiniInternet:
    """The mini internet with test., example.test. and the root signed."""
    mini = build_mini_internet()
    for zone_name in (".", "test.", "example.test."):
        zone = mini.tree.zone(name(zone_name))
        zone.replace_infrastructure_records(
            sign_irrs(zone.infrastructure_records)
        )
    # Parent-side copies must carry the child's DNSSEC sets too.
    root = mini.tree.zone(name("."))
    root.replace_delegation(
        mini.tree.zone(name("test.")).infrastructure_records
    )
    tld = mini.tree.zone(name("test."))
    tld.replace_delegation(
        mini.tree.zone(name("example.test.")).infrastructure_records
    )
    return mini


def make_stack(
    mini: MiniInternet,
    config: ResilienceConfig,
    attacks=None,
    gap_observer=None,
    faults=None,
    validation=False,
):
    """Build a CachingServer wired to the mini internet."""
    engine = SimulationEngine()
    network = Network(mini.tree, attacks=attacks, faults=faults)
    metrics = ReplayMetrics()
    server = CachingServer(
        root_hints=mini.tree.root_hints(),
        network=network,
        clock=engine,
        config=config,
        metrics=metrics,
        gap_observer=gap_observer,
        validation=validation,
    )
    return server, engine, network, metrics

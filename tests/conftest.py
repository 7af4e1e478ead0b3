"""Shared fixtures: the mini hand-built internet and a resolver stack."""

from __future__ import annotations

import pytest

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network

from tests.helpers import MiniInternet, build_mini_internet


@pytest.fixture
def mini() -> MiniInternet:
    """A fresh hand-built miniature hierarchy."""
    return build_mini_internet()


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

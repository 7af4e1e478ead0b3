"""Discrete-event simulation substrate.

The paper evaluates its caching schemes with a trace-driven simulator;
this package is that simulator's foundation:

* :mod:`repro.simulation.engine` -- a small discrete-event engine (a
  heap of timers) driving virtual time.
* :mod:`repro.simulation.attack` -- DDoS attack windows that take sets of
  zones' authoritative servers offline.
* :mod:`repro.simulation.network` -- delivers questions to authoritative
  servers, honouring attack windows and modelling latency/timeouts.
* :mod:`repro.simulation.metrics` -- the counters behind every figure and
  table: SR/CS failure rates, message counts, cache-size samples.
"""

from repro.simulation.attack import AttackSchedule, AttackWindow, attack_on_root_and_tlds
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import MemorySample, ReplayMetrics
from repro.simulation.network import LatencyModel, Network

__all__ = [
    "AttackSchedule",
    "AttackWindow",
    "LatencyModel",
    "MemorySample",
    "Network",
    "ReplayMetrics",
    "SimulationEngine",
    "attack_on_root_and_tlds",
]

"""repro — reproduction of "Enhancing DNS Resilience against Denial of
Service Attacks" (Pappas, Massey, Zhang — DSN 2007).

The library builds a synthetic DNS delegation hierarchy, replays query
traces through a full iterative caching resolver, and implements the
paper's three resilience schemes — TTL refresh, credit-based TTL renewal
(LRU / LFU / A-LRU / A-LFU) and long IRR TTLs — plus the harnesses that
regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        ResilienceConfig, Scale, make_scenario, run_replay, AttackSpec,
    )

    scenario = make_scenario(Scale.TINY)
    result = run_replay(
        scenario.built,
        scenario.trace("TRC1"),
        ResilienceConfig.refresh_renew("a-lfu", credit=5),
        attack=AttackSpec(),   # root + TLDs blocked for 6 h on day 7
    )
    print(result.metrics.sr_attack_failure_rate)
"""

from repro.core.cache import DnsCache
from repro.core.caching_server import CachingServer, Resolution, ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.core.policies import (
    AdaptiveLFUPolicy,
    AdaptiveLRUPolicy,
    LFUPolicy,
    LRUPolicy,
    RenewalPolicy,
    make_policy,
)
from repro.dns.message import Message, Question, Rcode
from repro.dns.name import Name, root_name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRClass, RRType
from repro.dns.dnssec import make_dnskey_rrset, make_ds_rrset, sign_irrs
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone, ZoneBuilder
from repro.experiments.harness import AttackSpec, ReplayResult, run_replay
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.hierarchy.builder import (
    BuiltHierarchy,
    HierarchyBuilder,
    HierarchyConfig,
    build_hierarchy,
)
from repro.hierarchy.churn import ChurnEvent, ChurnSchedule, apply_churn_event, generate_churn
from repro.hierarchy.tree import ZoneTree
from repro.simulation.attack import (
    AttackSchedule,
    AttackWindow,
    attack_on_root_and_tlds,
    attack_on_zones,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import LatencyModel, Network
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace, TraceQuery, read_trace, write_trace

__version__ = "1.0.0"

__all__ = [
    "AdaptiveLFUPolicy",
    "AdaptiveLRUPolicy",
    "AttackSchedule",
    "AttackSpec",
    "AttackWindow",
    "AuthoritativeServer",
    "BuiltHierarchy",
    "CachingServer",
    "ChurnEvent",
    "ChurnSchedule",
    "DnsCache",
    "HierarchyBuilder",
    "HierarchyConfig",
    "InfrastructureRecordSet",
    "LFUPolicy",
    "LRUPolicy",
    "LatencyModel",
    "Message",
    "Name",
    "Network",
    "Question",
    "RRClass",
    "RRType",
    "RRset",
    "Rcode",
    "RenewalPolicy",
    "ReplayResult",
    "ResilienceConfig",
    "Resolution",
    "ResolutionOutcome",
    "ResourceRecord",
    "Scale",
    "Scenario",
    "SimulationEngine",
    "Trace",
    "TraceGenerator",
    "TraceQuery",
    "WorkloadConfig",
    "Zone",
    "ZoneBuilder",
    "ZoneTree",
    "__version__",
    "apply_churn_event",
    "attack_on_root_and_tlds",
    "attack_on_zones",
    "build_hierarchy",
    "generate_churn",
    "make_dnskey_rrset",
    "make_ds_rrset",
    "make_policy",
    "make_scenario",
    "read_trace",
    "root_name",
    "run_replay",
    "sign_irrs",
    "write_trace",
]

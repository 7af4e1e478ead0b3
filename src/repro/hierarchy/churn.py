"""IRR churn: zones changing their name-server sets mid-trace.

The paper's long-TTL discussion (§4) concedes one cost: "if the IRR
changes at the ANs, the cached copy will be out of date... The penalty
paid for querying an obsolete name-server is a longer resolution time."
This module makes that cost measurable: a :class:`ChurnSchedule` lists
zones that migrate to brand-new server sets at given virtual times, and
:func:`apply_churn_event` performs one migration on a live tree.

Old servers either go *lame* (still running, REFUSED — a quick penalty)
or are *decommissioned* (timeouts — the expensive case).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.hierarchy.builder import BuiltHierarchy
from repro.hierarchy.tree import ZoneTree


@dataclass(frozen=True)
class ChurnEvent:
    """One migration: ``zone`` moves to a fresh server set at ``time``."""

    time: float
    zone: Name
    generation: int = 1


@dataclass
class ChurnSchedule:
    """Time-ordered migrations plus the policy for old servers."""

    events: list[ChurnEvent] = field(default_factory=list)
    decommission_old: bool = False

    def __post_init__(self) -> None:
        self.events.sort(key=lambda event: event.time)

    def __len__(self) -> int:
        return len(self.events)

    def zones(self) -> set[Name]:
        return {event.zone for event in self.events}


def _free_addresses(tree: ZoneTree) -> Iterator[str]:
    """The 172.16/12 addresses no server of ``tree`` listens on, in order.

    The block is disjoint from the builder's 10/8, and the pick depends
    only on the tree, so a migration gets the same addresses (and thus
    the same per-address RTTs) whatever ran before it in the process.
    """
    for second in range(16, 32):
        for third in range(256):
            for fourth in range(1, 255):
                address = f"172.{second}.{third}.{fourth}"
                if tree.server_by_address(address) is None:
                    yield address
    raise RuntimeError("churn address space exhausted")


def fresh_server_set(
    tree: ZoneTree,
    zone_name: Name,
    ttl: float,
    count: int,
    generation: int,
) -> tuple[InfrastructureRecordSet, list[AuthoritativeServer]]:
    """Mint a brand-new in-bailiwick NS+glue set and its server objects,
    on the first addresses ``tree`` does not serve yet."""
    addresses = _free_addresses(tree)
    ns_records = []
    glue = []
    servers = []
    for index in range(count):
        server_name = zone_name.child(f"ns{index + 1}g{generation}")
        address = next(addresses)
        ns_records.append(ResourceRecord(zone_name, RRType.NS, ttl, server_name))
        glue.append(
            RRset.from_records(
                [ResourceRecord(server_name, RRType.A, ttl, address)]
            )
        )
        servers.append(AuthoritativeServer(server_name, address))
    irrs = InfrastructureRecordSet(
        zone_name, RRset.from_records(ns_records), tuple(glue)
    )
    return irrs, servers


InvalidationListener = Callable[[Name, float], None]
"""Called as ``listener(zone, time)`` after a migration lands — the
update/invalidation channel of the ``decoupled`` scheme (caching servers
subscribe :meth:`CachingServer.handle_invalidation`)."""


def apply_churn_event(
    tree: ZoneTree,
    event: ChurnEvent,
    decommission_old: bool = False,
    listeners: Iterable[InvalidationListener] = (),
) -> None:
    """Perform one migration on the live tree.

    The new set keeps the zone's current NS TTL and server count, so the
    only thing that changes is *which* servers are authoritative.  Each
    ``listener`` is notified after the tree mutates, in subscription
    order (deterministic).
    """
    zone = tree.zone(event.zone)
    current = zone.infrastructure_records
    irrs, servers = fresh_server_set(
        tree,
        event.zone,
        ttl=current.ns.ttl,
        count=max(2, len(current.server_names())),
        generation=event.generation,
    )
    tree.migrate_zone_servers(
        event.zone, irrs, servers, decommission_old=decommission_old
    )
    for listener in listeners:
        listener(event.zone, event.time)


def generate_churn(
    built: BuiltHierarchy,
    start: float,
    end: float,
    zone_count: int,
    seed: int = 0,
    decommission_old: bool = False,
) -> ChurnSchedule:
    """Pick ``zone_count`` own-server SLD zones to migrate in [start, end).

    Provider-hosted zones are skipped (their churn is the provider's, a
    different phenomenon), as are zones whose servers also serve others.
    """
    if end <= start:
        raise ValueError("empty churn window")
    rng = random.Random(seed)
    candidates = []
    for zone in built.tree.zones():
        if zone.name.depth() != 2:
            continue
        servers = built.tree.servers_for_zone(zone.name)
        if not servers:
            continue
        exclusively_ours = all(
            server.zones_served() == (zone.name,) for server in servers
        )
        if exclusively_ours:
            candidates.append(zone.name)
    candidates.sort()
    chosen = rng.sample(candidates, min(zone_count, len(candidates)))
    events = [
        ChurnEvent(time=rng.uniform(start, end), zone=zone)
        for zone in chosen
    ]
    return ChurnSchedule(events=events, decommission_old=decommission_old)

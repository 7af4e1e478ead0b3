"""A canonical text dump of a built hierarchy, and its SHA-256.

The dump covers everything a replay can observe of the world: per zone
(in the tree's order) the apex NS, glue and DNSSEC sets, the data RRsets
(owner, type, TTL and rdata in order), the delegations, the SOA minimum
and the sorted set of names that exist in it; the servers of each zone;
the catalog and the provider list; and the names the build interned, in
the order it interned them (which fixes their ``iid``s).

Interning is process-wide, so a digest is only comparable between fresh
interpreters that ran the same imports first.  Print one with::

    PYTHONPATH=src python -m tests.hierarchy.world_dump small
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterator

from repro.dns.name import intern_count, name_for_id
from repro.dns.records import InfrastructureRecordSet, RRset
from repro.experiments.scenarios import Scale, make_scenario
from repro.hierarchy.builder import BuiltHierarchy

SEED = 7


def _rrset(tag: str, rrset: RRset) -> str:
    records = " ".join(f"{record.ttl!r}/{record.data}" for record in rrset)
    return f"  {tag} {rrset.name} {rrset.rrtype.name} {rrset.ttl!r} {records}"


def _irrs(tag: str, irrs: InfrastructureRecordSet) -> Iterator[str]:
    yield f" {tag} {irrs.zone}"
    yield _rrset("ns", irrs.ns)
    for rrset in irrs.glue:
        yield _rrset("glue", rrset)
    for rrset in irrs.dnssec:
        yield _rrset("dnssec", rrset)


def dump_lines(built: BuiltHierarchy, first_iid: int) -> Iterator[str]:
    """The dump, line by line; names from ``first_iid`` on are the build's."""
    tree = built.tree
    for zone in tree.zones():
        yield f"zone {zone.name} soa_minimum={zone.soa_minimum!r}"
        yield from _irrs("apex", zone.infrastructure_records)
        for rrset in zone.rrsets():
            yield _rrset("data", rrset)
        for irrs in zone.delegations():
            yield from _irrs("delegation", irrs)
        existing = sorted(zone._existing_names)
        yield " exists " + " ".join(str(name) for name in existing)
        for server in tree.servers_for_zone(zone.name):
            yield f" server {server.name} {server.address}"
    for zone_name, hosts in built.catalog.items():
        yield f"catalog {zone_name} " + " ".join(str(host) for host in hosts)
    yield "providers " + " ".join(str(name) for name in built.provider_zones)
    for iid in range(first_iid, intern_count()):
        yield f"interned {name_for_id(iid)}"


def world_digest(scale: Scale, seed: int = SEED) -> str:
    """SHA-256 of the dump of ``make_scenario(scale, seed)``'s world."""
    first_iid = intern_count()
    built = make_scenario(scale, seed).built
    digest = hashlib.sha256()
    for line in dump_lines(built, first_iid):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(world_digest(Scale(sys.argv[1])))

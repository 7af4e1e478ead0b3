"""Synthetic Internet-like DNS hierarchy generator.

Builds a delegation tree with the structural features the paper's
evaluation depends on:

* a root zone with 13 servers;
* a few hundred TLDs (a handful of huge gTLDs plus many ccTLDs), each
  with several servers and long IRR TTLs;
* many second-level zones (SLDs), distributed across TLDs by a Zipf law
  (com-like TLDs get most), each with 2–4 servers;
* **provider-hosted zones**: a fraction of SLDs outsource DNS to one of a
  small set of provider zones, so their NS names are out-of-bailiwick and
  resolving them requires the *provider's* zone to be reachable — this is
  the "leaf zone that is not a stub zone" effect from §3.2 of the paper;
* third-level zones under a fraction of SLDs (cs.ucla.edu-style), served
  either by their own in-bailiwick servers or their parent's servers;
* per-zone host catalogs (www/mail/host-N A records with short, data-TTL
  lifetimes) that the workload generator queries.

Everything is driven by a seeded :class:`random.Random`, so a given
(config, seed) pair always produces the same tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.collector import paused_collector
from repro.dns.dnssec import sign_irrs
from repro.dns.errors import ZoneConfigError
from repro.dns.name import Name, root_name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone, ZoneBuilder
from repro.hierarchy.tree import ZoneTree
from repro.hierarchy.ttlmodel import TtlModel

_GTLD_NAMES = ("com", "net", "org", "edu", "gov", "mil", "info", "biz")
_CCTLD_SYLLABLES = "abcdefghijklmnopqrstuvwxyz"
_COMMON_HOSTS = ("www", "mail", "ftp", "web", "smtp", "ns0host")
_A = RRType.A


@dataclass(frozen=True)
class HierarchyConfig:
    """Knobs for the synthetic hierarchy.

    The defaults give a laptop-scale tree; experiments scale ``num_slds``
    and friends through :class:`repro.experiments.scenarios.Scale`.
    """

    num_tlds: int = 40
    num_slds: int = 1200
    num_providers: int = 8
    provider_hosted_fraction: float = 0.35
    third_level_fraction: float = 0.15
    third_level_own_servers_fraction: float = 0.5
    max_third_level_children: int = 3
    root_server_count: int = 13
    tld_server_range: tuple[int, int] = (4, 8)
    sld_server_range: tuple[int, int] = (2, 4)
    provider_server_range: tuple[int, int] = (4, 6)
    hosts_per_zone_range: tuple[int, int] = (3, 12)
    tld_zipf_exponent: float = 1.1
    dnssec_fraction: float = 0.0
    """Fraction of zones publishing DNSSEC IRRs (paper §6 extension);
    the root and TLDs are always signed when this is non-zero."""
    ttl_model: TtlModel = field(default_factory=TtlModel)

    def __post_init__(self) -> None:
        if self.num_tlds < 1:
            raise ValueError("need at least one TLD")
        if self.num_providers > self.num_slds:
            raise ValueError("more providers than SLD slots")
        if not 0.0 <= self.provider_hosted_fraction <= 1.0:
            raise ValueError("provider_hosted_fraction must be a fraction")
        if not 0.0 <= self.dnssec_fraction <= 1.0:
            raise ValueError("dnssec_fraction must be a fraction")


@dataclass
class BuiltHierarchy:
    """The builder's output: the tree plus workload-facing indexes."""

    tree: ZoneTree
    catalog: dict[Name, list[Name]]
    """Queryable host names per zone apex (the workload's name pool)."""

    provider_zones: list[Name]
    """Apexes of the DNS-provider zones (useful for targeted attacks)."""

    def leaf_zone_names(self) -> list[Name]:
        """Zones with no delegations of their own."""
        return [
            zone.name
            for zone in self.tree.zones()
            if not zone.child_zone_names()
        ]


class _AddressAllocator:
    """Hands out unique dotted-quad server addresses."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> str:
        value = self._next
        self._next += 1
        if value >= 256**3:
            raise RuntimeError("address space exhausted")
        return (
            f"10.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"
        )


class HierarchyBuilder:
    """Builds a :class:`BuiltHierarchy` from a config and seed."""

    def __init__(self, config: HierarchyConfig | None = None, seed: int = 0) -> None:
        self.config = config or HierarchyConfig()
        self._rng = random.Random(seed)
        self._addresses = _AddressAllocator()
        self._tree = ZoneTree()
        self._catalog: dict[Name, list[Name]] = {}
        self._provider_irrs: list[InfrastructureRecordSet] = []
        self._provider_zone_names: list[Name] = []

    # -- public -----------------------------------------------------------

    @paused_collector()
    def build(self) -> BuiltHierarchy:
        """Construct the whole tree.  Call once per builder instance.

        Runs with the collector paused: zones, servers and record sets
        are long-lived and acyclic, and there are tens of thousands.
        """
        tld_names = self._choose_tld_names()
        tld_irrs = {name: self._make_zone_irrs(name, *self.config.tld_server_range)
                    for name in tld_names}
        self._build_root(tld_irrs)

        # Pre-plan SLD distribution across TLDs (Zipf over TLD rank).
        weights = [
            1.0 / (rank + 1) ** self.config.tld_zipf_exponent
            for rank in range(len(tld_names))
        ]
        sld_parents = self._rng.choices(
            tld_names, weights=weights, k=self.config.num_slds
        )

        # Providers first: their zones must exist before customers can
        # reference their server names.
        provider_parents = sld_parents[: self.config.num_providers]
        tld_children: dict[Name, list[InfrastructureRecordSet]] = {
            name: [] for name in tld_names
        }
        for index, parent in enumerate(provider_parents):
            irrs = self._build_provider_zone(index, parent)
            tld_children[parent].append(irrs)

        for index, parent in enumerate(sld_parents[self.config.num_providers:]):
            irrs = self._build_sld_zone(index, parent)
            tld_children[parent].append(irrs)

        for tld_name in tld_names:
            self._build_tld_zone(tld_name, tld_irrs[tld_name], tld_children[tld_name])

        return BuiltHierarchy(
            tree=self._tree,
            catalog=self._catalog,
            provider_zones=list(self._provider_zone_names),
        )

    # -- layers ------------------------------------------------------------

    def _choose_tld_names(self) -> list[Name]:
        names = [Name.from_text(label) for label in _GTLD_NAMES[: self.config.num_tlds]]
        seen = {name.labels[0] for name in names}
        while len(names) < self.config.num_tlds:
            label = "".join(self._rng.choices(_CCTLD_SYLLABLES, k=2))
            if label in seen:
                continue
            seen.add(label)
            names.append(Name.from_text(label))
        return names

    def _build_root(self, tld_irrs: dict[Name, InfrastructureRecordSet]) -> None:
        root = root_name()
        ttl = self.config.ttl_model.root_irr_ttl
        builder = ZoneBuilder(root, default_ttl=ttl)
        servers: list[AuthoritativeServer] = []
        for index in range(self.config.root_server_count):
            letter = chr(ord("a") + index)
            server_name = Name.from_text(f"{letter}.root-servers.example")
            address = self._addresses.allocate()
            builder.add_ns(server_name, address, ttl=ttl)
            servers.append(AuthoritativeServer(server_name, address))
        for irrs in tld_irrs.values():
            builder.delegate(irrs)
        zone = builder.build()
        if self.config.dnssec_fraction > 0.0:
            zone.replace_infrastructure_records(
                sign_irrs(zone.infrastructure_records)
            )
        self._register(zone, servers)

    def _build_tld_zone(
        self,
        name: Name,
        irrs: InfrastructureRecordSet,
        children: list[InfrastructureRecordSet],
    ) -> None:
        builder = ZoneBuilder(name, default_ttl=irrs.ns.ttl)
        builder.set_soa(minimum=3600.0)
        servers = self._servers_from_irrs(builder, irrs)
        for child in children:
            builder.delegate(child)
        self._register(builder.build(), servers)

    def _build_provider_zone(self, index: int, parent: Name) -> InfrastructureRecordSet:
        """A DNS-hosting provider: its servers also answer for customers."""
        name = parent.child(f"dns-provider{index}")
        low, high = self.config.provider_server_range
        irrs = self._make_zone_irrs(name, low, high)
        builder = ZoneBuilder(name, default_ttl=irrs.ns.ttl)
        servers = self._servers_from_irrs(builder, irrs)
        self._add_hosts(builder, name)
        self._register(builder.build(), servers)
        self._provider_irrs.append(irrs)
        self._provider_zone_names.append(name)
        return irrs

    def _build_sld_zone(self, index: int, parent: Name) -> InfrastructureRecordSet:
        name = parent.child(f"z{index}")
        hosted = (
            self._provider_irrs
            and self._rng.random() < self.config.provider_hosted_fraction
        )
        if hosted:
            provider = self._rng.choice(self._provider_irrs)
            irrs = self._provider_hosted_irrs(name, provider)
            servers = [
                self._tree.server_by_name(server_name)
                for server_name in irrs.server_names()
            ]
            servers = [server for server in servers if server is not None]
        else:
            low, high = self.config.sld_server_range
            irrs = self._make_zone_irrs(name, low, high)
            servers = None  # created below from glue

        builder = ZoneBuilder(name, default_ttl=irrs.ns.ttl)
        if servers is None:
            servers = self._servers_from_irrs(builder, irrs)
        else:
            builder.set_infrastructure(irrs)  # out-of-bailiwick, no glue
        self._add_hosts(builder, name)

        third_level: list[InfrastructureRecordSet] = []
        if self._rng.random() < self.config.third_level_fraction:
            child_count = self._rng.randint(1, self.config.max_third_level_children)
            for child_index in range(child_count):
                third_level.append(
                    self._build_third_level_zone(name, child_index, irrs, servers)
                )
        for child in third_level:
            builder.delegate(child)
        self._register(builder.build(), servers)
        return irrs

    def _build_third_level_zone(
        self,
        parent: Name,
        index: int,
        parent_irrs: InfrastructureRecordSet,
        parent_servers: list[AuthoritativeServer],
    ) -> InfrastructureRecordSet:
        name = parent.child(f"dept{index}")
        own_servers = (
            self._rng.random() < self.config.third_level_own_servers_fraction
        )
        if own_servers:
            irrs = self._make_zone_irrs(name, 2, 3)
            builder = ZoneBuilder(name, default_ttl=irrs.ns.ttl)
            servers = self._servers_from_irrs(builder, irrs)
        else:
            # Served by the parent organisation's servers: NS names point
            # at the parent zone's servers (out-of-bailiwick for the child).
            ttl = self.config.ttl_model.sample_irr_ttl(self._rng, name.depth())
            ns_records = [
                ResourceRecord(name, RRType.NS, ttl, server_name)
                for server_name in parent_irrs.server_names()
            ]
            irrs = InfrastructureRecordSet(name, RRset.from_records(ns_records))
            builder = ZoneBuilder(name, default_ttl=ttl)
            builder.set_infrastructure(irrs)
            servers = list(parent_servers)
        self._add_hosts(builder, name)
        self._register(builder.build(), servers)
        return irrs

    # -- pieces ----------------------------------------------------------------

    def _make_zone_irrs(
        self, zone: Name, low: int, high: int
    ) -> InfrastructureRecordSet:
        """Fresh in-bailiwick NS + glue for ``zone``."""
        count = self._rng.randint(low, high)
        ttl = self.config.ttl_model.sample_irr_ttl(self._rng, zone.depth())
        ns_records = []
        glue_sets = []
        for index in range(count):
            server_name = zone.child(f"ns{index + 1}")
            address = self._addresses.allocate()
            ns_records.append(ResourceRecord(zone, RRType.NS, ttl, server_name))
            glue = ResourceRecord(server_name, RRType.A, ttl, address)
            glue_sets.append(RRset(server_name, RRType.A, ttl, (glue,)))
        irrs = InfrastructureRecordSet(
            zone, RRset.from_records(ns_records), tuple(glue_sets)
        )
        return self._maybe_sign(irrs)

    def _provider_hosted_irrs(
        self, zone: Name, provider: InfrastructureRecordSet
    ) -> InfrastructureRecordSet:
        """IRRs for a customer zone pointing at provider servers (no glue)."""
        ttl = self.config.ttl_model.sample_irr_ttl(self._rng, zone.depth())
        ns_records = [
            ResourceRecord(zone, RRType.NS, ttl, server_name)
            for server_name in provider.server_names()
        ]
        irrs = InfrastructureRecordSet(zone, RRset.from_records(ns_records))
        return self._maybe_sign(irrs)

    def _maybe_sign(self, irrs: InfrastructureRecordSet) -> InfrastructureRecordSet:
        """Sign a zone's IRRs per the configured DNSSEC deployment.

        TLDs (depth 1) are always signed when DNSSEC is enabled at all,
        mirroring real deployment order (root/TLDs signed first).
        """
        fraction = self.config.dnssec_fraction
        if fraction <= 0.0:
            return irrs
        if irrs.zone.depth() <= 1 or self._rng.random() < fraction:
            return sign_irrs(irrs)
        return irrs

    def _servers_from_irrs(
        self, builder: ZoneBuilder, irrs: InfrastructureRecordSet
    ) -> list[AuthoritativeServer]:
        """Serve ``irrs`` at ``builder``'s apex; mint its servers."""
        servers = []
        glue_sets = []
        for record in irrs.ns:
            server_name = record.data
            if not isinstance(server_name, Name):
                raise ZoneConfigError(
                    f"NS rdata {server_name!r} is not a name"
                )
            glue = irrs.glue_for(server_name)
            if glue is None:
                raise ZoneConfigError(
                    f"in-bailiwick server {server_name} without glue"
                )
            glue_sets.append(glue)
            address = str(glue.records[0].data)
            existing = self._tree.server_by_name(server_name)
            servers.append(existing or AuthoritativeServer(server_name, address))
        # The apex lists glue in NS order, as a zone whose servers are
        # added one by one does.  From ten servers on ("ns10" sorts before
        # "ns2") that is not the parent-side order, and the apex gets a
        # set of its own.
        apex_glue = tuple(glue_sets)
        if apex_glue != irrs.glue:
            irrs = InfrastructureRecordSet(irrs.zone, irrs.ns, apex_glue, irrs.dnssec)
        builder.set_infrastructure(irrs)
        return servers

    def _add_hosts(self, builder: ZoneBuilder, zone: Name) -> None:
        """The zone's SOA and hosts: one A record and one RRset a host."""
        rng = self._rng
        builder.set_soa(minimum=float(rng.choice((300, 900, 3600))))
        low, high = self.config.hosts_per_zone_range
        count = rng.randint(low, high)
        sample_ttl = self.config.ttl_model.sample_data_ttl
        allocate = self._addresses.allocate
        labels = zone.labels
        hosts: list[Name] = []
        rrsets: list[RRset] = []
        for index in range(count):
            label = _COMMON_HOSTS[index] if index < len(_COMMON_HOSTS) else f"host{index}"
            # Labels made here are lowercase and valid: no ``child`` checks.
            host = Name((label, *labels))
            ttl = sample_ttl(rng)
            record = ResourceRecord(host, _A, ttl, allocate())
            rrsets.append(RRset(host, _A, ttl, (record,)))
            hosts.append(host)
        builder.add_rrsets(rrsets)
        self._catalog[zone] = hosts

    def _register(self, zone: Zone, servers: list[AuthoritativeServer]) -> None:
        self._tree.add_zone(zone, servers)


def build_hierarchy(
    config: HierarchyConfig | None = None, seed: int = 0
) -> BuiltHierarchy:
    """One-shot convenience wrapper around :class:`HierarchyBuilder`."""
    return HierarchyBuilder(config, seed).build()


# -- adversary zone grafts ----------------------------------------------------


@dataclass(frozen=True)
class AttackerZoneGraft:
    """Receipt for a grafted attacker zone; pass to the ungraft."""

    apex: Name
    parent: Name


#: TEST-NET-3 block: guaranteed disjoint from the builder's 10/8 space.
_ATTACKER_NET = "203.0.113."


def graft_attacker_zone(
    tree: ZoneTree,
    fan_out: int,
    delegations: int,
    ttl: float = 300.0,
) -> AttackerZoneGraft:
    """Register an NXNS-style attacker zone under the first TLD.

    The zone delegates ``delegations`` children, each naming ``fan_out``
    nonexistent out-of-bailiwick name servers spread across the victim
    SLDs already in the tree.  A resolver chasing such a referral must
    sub-resolve every server name — each one a full (failing) resolution
    against an innocent zone — reproducing the NXNSAttack query storm.

    Pair with :func:`ungraft_attacker_zone` (try/finally) so warm-pool
    trees are restored byte-for-byte.
    """
    if fan_out < 1 or delegations < 1:
        raise ValueError("fan_out and delegations must be positive")
    parent_name = sorted(tree.tld_names())[0]
    victims = sorted(
        name for name in tree.zone_names() if name.depth() == 2
    ) or [parent_name]
    apex = parent_name.child("nxns-attacker")

    address = ""
    for octet in range(1, 255):
        candidate = f"{_ATTACKER_NET}{octet}"
        if tree.server_by_address(candidate) is None:
            address = candidate
            break
    if not address:
        raise RuntimeError("attacker address space exhausted")
    builder = ZoneBuilder(apex, default_ttl=ttl)
    builder.set_soa(minimum=60.0)
    server_name = apex.child("ns1")
    builder.add_ns(server_name, address, ttl=ttl)
    for j in range(delegations):
        sub = apex.child(f"s{j}")
        ns_records = [
            ResourceRecord(
                sub,
                RRType.NS,
                ttl,
                victims[(j * fan_out + k) % len(victims)].child(f"nx{j}-{k}"),
            )
            for k in range(fan_out)
        ]
        builder.delegate(
            InfrastructureRecordSet(sub, RRset.from_records(ns_records))
        )
    zone = builder.build()
    tree.add_zone(zone, [AuthoritativeServer(server_name, address)])
    tree.zone(parent_name).add_delegation(zone.infrastructure_records)
    return AttackerZoneGraft(apex=apex, parent=parent_name)


def ungraft_attacker_zone(tree: ZoneTree, graft: AttackerZoneGraft) -> None:
    """Undo :func:`graft_attacker_zone` exactly.

    The attacker's delegation was appended last, so popping it preserves
    the parent's remaining delegation (and response-memo rebuild) order.
    """
    tree.zone(graft.parent).remove_delegation(graft.apex)
    tree.remove_zone(graft.apex)

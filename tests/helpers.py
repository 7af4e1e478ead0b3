"""Hand-built miniature DNS hierarchies for deterministic unit tests.

The synthetic :mod:`repro.hierarchy.builder` is great for experiments but
randomises TTLs and structure; unit tests need exact control.
:func:`build_mini_internet` constructs, by hand::

    .  (root, 2 servers, NS TTL 6 d)
    ├── test.                 (TLD, 2 servers, NS TTL 2 d)
    │   ├── example.test.     (SLD, own servers, NS TTL 1 h, www/mail hosts)
    │   │   └── dept.example.test.  (3LD served by example.test's servers)
    │   ├── hosted.test.      (SLD outsourced to provider's servers, no glue)
    │   └── provider.test.    (the DNS provider, own servers + glue)
    └── alt.                  (second TLD, 1 server, empty except apex)

All addresses are deterministic (10.0.0.x).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.dns.name import Name
from repro.dns.records import InfrastructureRecordSet, ResourceRecord, RRset
from repro.dns.rrtypes import RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import ZoneBuilder
from repro.hierarchy.tree import ZoneTree

HOUR = 3600.0
DAY = 86400.0


def name(text: str) -> Name:
    """Shorthand for Name.from_text."""
    return Name.from_text(text)


@dataclass
class MiniInternet:
    """The hand-built tree plus handy references for assertions."""

    tree: ZoneTree
    addresses: dict[str, str] = field(default_factory=dict)
    """server hostname text -> address."""

    ttls: dict[str, float] = field(default_factory=dict)
    """zone apex text -> NS TTL."""

    def address_of(self, server: str) -> str:
        return self.addresses[server]


def _irrs(
    zone: str, servers: list[tuple[str, str]], ttl: float
) -> InfrastructureRecordSet:
    """In-bailiwick IRRs for ``zone`` from (hostname, address) pairs."""
    zone_name = name(zone)
    ns_records = [
        ResourceRecord(zone_name, RRType.NS, ttl, name(host))
        for host, _ in servers
    ]
    glue = tuple(
        RRset.from_records([ResourceRecord(name(host), RRType.A, ttl, address)])
        for host, address in servers
    )
    return InfrastructureRecordSet(zone_name, RRset.from_records(ns_records), glue)


def _ns_only_irrs(
    zone: str, servers: list[str], ttl: float
) -> InfrastructureRecordSet:
    """Glue-less (out-of-bailiwick) IRRs."""
    zone_name = name(zone)
    ns_records = [
        ResourceRecord(zone_name, RRType.NS, ttl, name(host)) for host in servers
    ]
    return InfrastructureRecordSet(zone_name, RRset.from_records(ns_records))


def _add_extra(builder: ZoneBuilder, records: Sequence[ResourceRecord]) -> None:
    for record in records:
        if record.name.is_subdomain_of(builder.name):
            builder.add_record(record)


def build_mini_internet(
    sld_ns_ttl: float = 1 * HOUR,
    data_ttl: float = 10 * 60.0,
    tld_ns_ttl: float = 2 * DAY,
    extra_records: Sequence[ResourceRecord] = (),
) -> MiniInternet:
    """Construct the fixed miniature hierarchy described in the module doc.

    Each of ``extra_records`` joins ``example.test.`` or ``provider.test.``,
    whichever its owner lies under (CNAME chains across zones, say).
    """
    mini = MiniInternet(tree=ZoneTree())
    next_address = [0]

    def alloc() -> str:
        value = next_address[0]
        next_address[0] += 1
        return f"10.0.{value // 250}.{value % 250 + 1}"

    def make_servers(pairs: list[str]) -> list[tuple[str, str]]:
        result = []
        for host in pairs:
            address = alloc()
            mini.addresses[host] = address
            result.append((host, address))
        return result

    root_ttl = 6 * DAY
    mini.ttls["."] = root_ttl
    mini.ttls["test."] = tld_ns_ttl
    mini.ttls["alt."] = tld_ns_ttl
    mini.ttls["example.test."] = sld_ns_ttl
    mini.ttls["hosted.test."] = sld_ns_ttl
    mini.ttls["provider.test."] = sld_ns_ttl
    mini.ttls["dept.example.test."] = sld_ns_ttl

    root_servers = make_servers(["a.root.", "b.root."])
    test_servers = make_servers(["ns1.test.", "ns2.test."])
    alt_servers = make_servers(["ns1.alt."])
    example_servers = make_servers(["ns1.example.test.", "ns2.example.test."])
    provider_servers = make_servers(["ns1.provider.test.", "ns2.provider.test."])

    test_irrs = _irrs("test.", test_servers, tld_ns_ttl)
    alt_irrs = _irrs("alt.", alt_servers, tld_ns_ttl)
    example_irrs = _irrs("example.test.", example_servers, sld_ns_ttl)
    provider_irrs = _irrs("provider.test.", provider_servers, sld_ns_ttl)
    hosted_irrs = _ns_only_irrs(
        "hosted.test.", ["ns1.provider.test.", "ns2.provider.test."], sld_ns_ttl
    )
    dept_irrs = _ns_only_irrs(
        "dept.example.test.",
        ["ns1.example.test.", "ns2.example.test."],
        sld_ns_ttl,
    )

    # Root zone.
    root_builder = ZoneBuilder(name("."), default_ttl=root_ttl)
    for host, address in root_servers:
        root_builder.add_ns(host, address, ttl=root_ttl)
    root_builder.delegate(test_irrs)
    root_builder.delegate(alt_irrs)
    root_zone = root_builder.build()
    mini.tree.add_zone(
        root_zone,
        [AuthoritativeServer(name(host), addr) for host, addr in root_servers],
    )

    # test. TLD.
    test_builder = ZoneBuilder(name("test."), default_ttl=tld_ns_ttl)
    for host, address in test_servers:
        test_builder.add_ns(host, address, ttl=tld_ns_ttl)
    test_builder.delegate(example_irrs)
    test_builder.delegate(provider_irrs)
    test_builder.delegate(hosted_irrs)
    mini.tree.add_zone(
        test_builder.build(),
        [AuthoritativeServer(name(host), addr) for host, addr in test_servers],
    )

    # alt. TLD (empty besides apex).
    alt_builder = ZoneBuilder(name("alt."), default_ttl=tld_ns_ttl)
    for host, address in alt_servers:
        alt_builder.add_ns(host, address, ttl=tld_ns_ttl)
    mini.tree.add_zone(
        alt_builder.build(),
        [AuthoritativeServer(name(host), addr) for host, addr in alt_servers],
    )

    # example.test. with hosts and a CNAME, delegating dept.
    example_builder = ZoneBuilder(name("example.test."), default_ttl=sld_ns_ttl)
    for host, address in example_servers:
        example_builder.add_ns(host, address, ttl=sld_ns_ttl)
    example_builder.add_address("www.example.test.", alloc(), ttl=data_ttl)
    example_builder.add_address("mail.example.test.", alloc(), ttl=data_ttl)
    example_builder.add_record(
        ResourceRecord(
            name("web.example.test."), RRType.CNAME, data_ttl,
            name("www.example.test."),
        )
    )
    example_builder.delegate(dept_irrs)
    _add_extra(example_builder, extra_records)
    example_zone_servers = [
        AuthoritativeServer(name(host), addr) for host, addr in example_servers
    ]
    mini.tree.add_zone(example_builder.build(), example_zone_servers)

    # dept.example.test. served by the example servers.
    dept_builder = ZoneBuilder(name("dept.example.test."), default_ttl=sld_ns_ttl)
    for record in dept_irrs.ns:
        dept_builder.add_ns_record(record)
    dept_builder.add_address("www.dept.example.test.", alloc(), ttl=data_ttl)
    mini.tree.add_zone(dept_builder.build(), example_zone_servers)

    # provider.test. with its own servers.
    provider_builder = ZoneBuilder(name("provider.test."), default_ttl=sld_ns_ttl)
    for host, address in provider_servers:
        provider_builder.add_ns(host, address, ttl=sld_ns_ttl)
    provider_builder.add_address("www.provider.test.", alloc(), ttl=data_ttl)
    _add_extra(provider_builder, extra_records)
    provider_zone_servers = [
        AuthoritativeServer(name(host), addr) for host, addr in provider_servers
    ]
    mini.tree.add_zone(provider_builder.build(), provider_zone_servers)

    # hosted.test. served by the provider's servers (out-of-bailiwick NS).
    hosted_builder = ZoneBuilder(name("hosted.test."), default_ttl=sld_ns_ttl)
    for record in hosted_irrs.ns:
        hosted_builder.add_ns_record(record)
    hosted_builder.add_address("www.hosted.test.", alloc(), ttl=data_ttl)
    mini.tree.add_zone(hosted_builder.build(), provider_zone_servers)

    return mini

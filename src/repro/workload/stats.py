"""Trace statistics — the columns of the paper's Table 1.

For each trace the paper reports: organisation/location/duration (fixed
metadata here), number of clients (stub resolvers), requests in (SR→CS),
requests out (CS→AN, measured by replaying), distinct names and distinct
zones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.name import Name
from repro.hierarchy.tree import ZoneTree
from repro.workload.trace import Trace

DAY = 86400.0


@dataclass(frozen=True)
class TraceStatistics:
    """One row of Table 1."""

    name: str
    duration_days: float
    clients: int
    requests_in: int
    requests_out: int | None
    distinct_names: int
    distinct_zones: int

    def as_row(self) -> tuple:
        out = "-" if self.requests_out is None else self.requests_out
        return (
            self.name,
            f"{self.duration_days:g} days",
            self.clients,
            self.requests_in,
            out,
            self.distinct_names,
            self.distinct_zones,
        )


def compute_statistics(
    trace: Trace,
    tree: ZoneTree | None = None,
    requests_out: int | None = None,
) -> TraceStatistics:
    """Compute Table-1 statistics for ``trace``.

    ``tree`` maps names to their enclosing zones for the distinct-zone
    count; without it, zones are approximated by stripping one label
    (host → zone), which is exact for the synthetic workload's
    host-in-zone names.

    ``requests_out`` comes from a replay (the trace alone cannot know
    how many queries the CS emitted).
    """
    names = trace.distinct_qnames()
    zones: set[Name] = set()
    for qname in names:
        if tree is not None:
            zones.add(tree.enclosing_zone(qname).name)
        else:
            zones.add(qname.parent() if not qname.is_root else qname)
    return TraceStatistics(
        name=trace.name,
        duration_days=trace.duration / DAY,
        clients=trace.client_count(),
        requests_in=len(trace),
        requests_out=requests_out,
        distinct_names=len(names),
        distinct_zones=len(zones),
    )

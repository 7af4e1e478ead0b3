"""Trace representation and on-disk format.

A trace is a time-ordered sequence of stub-resolver queries.  The text
format (one query per line) exists so real packet-capture-derived traces
can replace the synthetic ones::

    # time_seconds client_id qname qtype
    0.0413 17 www.z42.com. A
    0.9021 3 mail.dns-provider0.com. A
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.dns.name import Name
from repro.dns.rrtypes import RRType


@dataclass(frozen=True, slots=True)
class TraceQuery:
    """One stub-resolver query."""

    time: float
    client_id: int
    qname: Name
    rrtype: RRType = RRType.A


@dataclass
class Trace:
    """A named, time-ordered query sequence."""

    name: str
    duration: float
    queries: list[TraceQuery] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"trace duration must be positive, got {self.duration}")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[TraceQuery]:
        return iter(self.queries)

    def client_count(self) -> int:
        """Distinct stub resolvers appearing in the trace."""
        return len({query.client_id for query in self.queries})

    def distinct_names(self) -> int:
        """Distinct (qname) values (Table 1's "names")."""
        return len({query.qname for query in self.queries})

    def time_span(self) -> tuple[float, float]:
        """(first, last) query timestamps; (0, 0) for an empty trace."""
        if not self.queries:
            return (0.0, 0.0)
        return (self.queries[0].time, self.queries[-1].time)

    def validate_ordering(self) -> None:
        """Raise ValueError if queries are not time-sorted in [0, duration]."""
        previous = 0.0
        for query in self.queries:
            if query.time < previous:
                raise ValueError(
                    f"trace {self.name} not time-ordered at t={query.time}"
                )
            previous = query.time
        if self.queries and self.queries[-1].time > self.duration:
            raise ValueError(
                f"trace {self.name} has queries beyond its duration"
            )

    def slice_window(self, start: float, end: float) -> list[TraceQuery]:
        """Queries with start <= time < end."""
        return [query for query in self.queries if start <= query.time < end]


def write_trace(trace: Trace, path: Path | str) -> None:
    """Serialise a trace to the text format."""
    with open(path, "w", encoding="ascii") as handle:
        _write_stream(trace, handle)


def trace_to_text(trace: Trace) -> str:
    """The trace's text-format serialisation as a string."""
    buffer = io.StringIO()
    _write_stream(trace, buffer)
    return buffer.getvalue()


def _write_stream(trace: Trace, handle: IO[str]) -> None:
    handle.write(f"# trace {trace.name} duration {trace.duration}\n")
    handle.write("# time_seconds client_id qname qtype\n")
    for query in trace.queries:
        # repr, not a fixed precision: the file must replay like the trace
        # it was written from, and a rounded time reorders cache expiries.
        handle.write(
            f"{query.time!r} {query.client_id} {query.qname} "
            f"{query.rrtype.name}\n"
        )


def read_trace(path: Path | str, name: str | None = None) -> Trace:
    """Parse a text-format trace file.

    The header comment supplies the trace name and duration; both can be
    absent, in which case the filename and last timestamp are used.

    Raises:
        ValueError: for malformed lines.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.readlines()
    return trace_from_lines(lines, default_name=name or Path(path).stem)


def trace_from_lines(lines: Iterable[str], default_name: str = "trace") -> Trace:
    """Parse text-format lines into a :class:`Trace`."""
    trace_name = default_name
    duration: float | None = None
    queries: list[TraceQuery] = []
    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) >= 4 and tokens[0] == "trace" and tokens[2] == "duration":
                trace_name = tokens[1]
                duration = float(tokens[3])
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"line {line_number}: expected 3-4 fields, got {line!r}")
        time = float(parts[0])
        client_id = int(parts[1])
        qname = Name.from_text(parts[2])
        rrtype = RRType[parts[3]] if len(parts) == 4 else RRType.A
        queries.append(TraceQuery(time, client_id, qname, rrtype))
    if duration is None:
        duration = queries[-1].time if queries else 1.0
    trace = Trace(name=trace_name, duration=max(duration, 1e-9), queries=queries)
    trace.validate_ordering()
    return trace

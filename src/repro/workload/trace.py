"""Trace representation and on-disk format.

A trace is a time-ordered sequence of stub-resolver queries.  The text
format (one query per line) exists so real packet-capture-derived traces
can replace the synthetic ones::

    # time_seconds client_id qname qtype
    0.0413 17 www.z42.com. A
    0.9021 3 mail.dns-provider0.com. A

In memory a trace is four columns, not a list of rows: a paper-scale
week is 6.3 million queries, and as tuples it held ~0.95 GB.  A
:class:`TraceQuery` row exists only while someone is reading it; the
numeric reductions (client and name counts, the time window, the
ordering check) run on the columns.
"""

from __future__ import annotations

import io
import operator
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from pathlib import Path
from typing import IO, NamedTuple, overload

import numpy as np

from repro.dns.name import Name
from repro.dns.rrtypes import RRType

ROW_CHUNK = 1 << 10
"""Rows made from a trace's columns at a time while it is iterated.  A
chunk's columns live as Python lists (four boxed values a row) only
until its rows have been read, and a row only until its reader drops
it.  Small, so that what a chunk boxed and touched is still in cache
when its rows are read (65,536 read ~3 % slower on the perf ledger's
``replay_hot``); the per-chunk call is then a few ns a row."""


class TraceQuery(NamedTuple):
    """One stub-resolver query.

    A ``NamedTuple``: a row can be made by ``tuple.__new__`` with no
    Python frame per row (see :meth:`TraceQueries.__iter__`).
    """

    time: float
    client_id: int
    qname: Name
    rrtype: RRType = RRType.A


def object_array(items: Sequence[object]) -> np.ndarray:
    """A 1-d array holding ``items`` themselves, for picking them by index."""
    array = np.empty(len(items), dtype=object)
    array[:] = items
    return array


def index_column(indices: Sequence[int] | np.ndarray, bound: int) -> np.ndarray:
    """``indices``, each below ``bound``, in the narrowest dtype holding them."""
    return np.array(indices, dtype=np.min_scalar_type(bound))


class TraceQueries(Sequence[TraceQuery]):
    """A read-only view of a trace's queries over its columns.

    Query ``i`` is at ``times[i]`` (float64) from client ``clients[i]``,
    and asks for ``names[name_ids[i]]`` of type ``types[type_ids[i]]``:
    ``names`` and ``types`` are tables of the objects themselves, shared
    by every view of the trace, and each index column is as narrow as its
    table (:func:`index_column`).  A slice is another view over numpy
    slices of the same columns; nothing is copied.
    """

    __slots__ = ("times", "clients", "name_ids", "names", "type_ids", "types")

    def __init__(
        self,
        times: np.ndarray,
        clients: np.ndarray,
        name_ids: np.ndarray,
        names: np.ndarray,
        type_ids: np.ndarray,
        types: np.ndarray,
    ) -> None:
        self.times = times
        self.clients = clients
        self.name_ids = name_ids
        self.names = names
        self.type_ids = type_ids
        self.types = types

    @classmethod
    def from_fields(
        cls,
        times: Sequence[float],
        clients: Sequence[int],
        qnames: Sequence[Name],
        rrtypes: Sequence[RRType],
    ) -> TraceQueries:
        """Columns for the queries ``zip(times, clients, qnames, rrtypes)``;
        their names and types are interned into the tables."""
        name_table: dict[Name, int] = {}
        type_table: dict[RRType, int] = {}
        name_ids = [name_table.setdefault(qname, len(name_table)) for qname in qnames]
        type_ids = [type_table.setdefault(rrtype, len(type_table)) for rrtype in rrtypes]
        return cls(
            np.array(times, dtype=np.float64),
            np.array(clients, dtype=np.int64),
            index_column(name_ids, len(name_table)),
            object_array(list(name_table)),
            index_column(type_ids, len(type_table)),
            object_array(list(type_table)),
        )

    @classmethod
    def from_rows(cls, rows: Iterable[TraceQuery]) -> TraceQueries:
        """Columns holding ``rows``."""
        fields = tuple(zip(*rows)) or ((), (), (), ())
        return cls.from_fields(*fields)

    def __len__(self) -> int:
        return len(self.times)

    @overload
    def __getitem__(self, index: int) -> TraceQuery: ...

    @overload
    def __getitem__(self, index: slice) -> TraceQueries: ...

    def __getitem__(self, index: int | slice) -> TraceQuery | TraceQueries:
        if isinstance(index, slice):
            return TraceQueries(
                self.times[index], self.clients[index], self.name_ids[index],
                self.names, self.type_ids[index], self.types,
            )
        return TraceQuery(
            float(self.times[index]),
            int(self.clients[index]),
            self.names[self.name_ids[index]],
            self.types[self.type_ids[index]],
        )

    def __iter__(self) -> Iterator[TraceQuery]:
        return chain.from_iterable(
            map(self._chunk_rows, range(0, len(self), ROW_CHUNK))
        )

    def _chunk_rows(self, begin: int) -> Iterator[TraceQuery]:
        """The rows of the chunk at ``begin``, made in C as they are read.

        ``tolist()`` boxes to plain ``float``/``int``, so no numpy scalar
        reaches a row, and from there the metrics or a written file.
        ``tuple.__new__`` fills a row from its zipped fields without the
        Python frame ``TraceQuery(...)`` would run.
        """
        chunk = slice(begin, begin + ROW_CHUNK)
        return map(tuple.__new__, repeat(TraceQuery), zip(
            self.times[chunk].tolist(),
            self.clients[chunk].tolist(),
            self.names[self.name_ids[chunk]].tolist(),
            self.types[self.type_ids[chunk]].tolist(),
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TraceQueries, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class Trace:
    """A named, time-ordered query sequence.

    ``queries`` may be any iterable of :class:`TraceQuery` rows (a list,
    from a parser, a test or an example) or a :class:`TraceQueries` view
    of another trace; either way the trace keeps columns.
    """

    def __init__(
        self, name: str, duration: float, queries: Iterable[TraceQuery] = ()
    ) -> None:
        if duration <= 0:
            raise ValueError(f"trace duration must be positive, got {duration}")
        self.name = name
        self.duration = duration
        self.queries = (
            queries if isinstance(queries, TraceQueries)
            else TraceQueries.from_rows(queries)
        )

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[TraceQuery]:
        return iter(self.queries)

    def client_count(self) -> int:
        """Distinct stub resolvers appearing in the trace."""
        return len(np.unique(self.queries.clients))

    def distinct_qnames(self) -> set[Name]:
        """The distinct qnames the trace asks for."""
        queries = self.queries
        return set(queries.names[np.unique(queries.name_ids)].tolist())

    def distinct_names(self) -> int:
        """Distinct (qname) values (Table 1's "names")."""
        return len(self.distinct_qnames())

    def time_span(self) -> tuple[float, float]:
        """(first, last) query timestamps; (0, 0) for an empty trace."""
        times = self.queries.times
        if not len(times):
            return (0.0, 0.0)
        return (float(times[0]), float(times[-1]))

    def validate_ordering(self) -> None:
        """Raise ValueError if queries are not time-sorted in [0, duration]."""
        times = self.queries.times
        if not len(times):
            return
        behind = np.flatnonzero(times < np.concatenate(([0.0], times[:-1])))
        if len(behind):
            raise ValueError(
                f"trace {self.name} not time-ordered at "
                f"t={float(times[behind[0]])}"
            )
        if times[-1] > self.duration:
            raise ValueError(
                f"trace {self.name} has queries beyond its duration"
            )

    def slice_window(self, start: float, end: float) -> TraceQueries:
        """Queries with start <= time < end (a view; the trace is sorted)."""
        times = self.queries.times
        first, stop = np.searchsorted(times, (start, end)).tolist()
        return self.queries[first:stop]


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
    # The rows carry plain float/int from tolist(): the repr of a numpy
    # scalar would write ``np.float64(...)``.  repr, not a fixed
    # precision: the file must replay like the trace it was written
    # from, and a rounded time reorders cache expiries.
    for time, client_id, qname, rrtype in trace.queries:
        handle.write(f"{time!r} {client_id} {qname} {rrtype.name}\n")


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
    times: list[float] = []
    clients: list[int] = []
    qnames: list[Name] = []
    rrtypes: list[RRType] = []
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
        times.append(float(parts[0]))
        clients.append(int(parts[1]))
        qnames.append(Name.from_text(parts[2]))
        rrtypes.append(RRType[parts[3]] if len(parts) == 4 else RRType.A)
    if duration is None:
        duration = times[-1] if times else 1.0
    trace = Trace(
        name=trace_name,
        duration=max(duration, 1e-9),
        queries=TraceQueries.from_fields(times, clients, qnames, rrtypes),
    )
    trace.validate_ordering()
    return trace

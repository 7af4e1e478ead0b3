"""Synthetic stub-resolver workload generation.

The generator reproduces the statistical structure the paper's evaluation
depends on (rather than the authors' private packet traces):

* **Zipf zone popularity** — a few zones draw most queries; the long tail
  is visited rarely (this is what makes LFU-style renewal matter).
* **Per-client interest locality** — each stub resolver mixes the globally
  popular zones with a private working set (the paper's "overlap of
  interest between different SRs").
* **Diurnal load** — sinusoidal day/night modulation of the Poisson
  arrival rate.
* **Host-level popularity** — within a zone, www-like hosts dominate.
* **Query-type mix** — mostly A, a sliver of AAAA/MX (which often yield
  NODATA, as in real traces).

A trace is generated column by column, never query by query: every
random draw is one numpy call over the whole trace, the host pick is one
``searchsorted`` per distinct host-list size, and names and types are
picked by indexing flat object arrays built once per generator.  Python
objects appear only at the very end, when the columns are turned into
:class:`~repro.workload.trace.TraceQuery` rows :data:`ROW_CHUNK` at a
time.  A row is a ``NamedTuple`` filled in C — ``tuple.__new__`` mapped
over the zipped columns — so no Python frame runs per row, and a
paper-scale week of 6.3 million queries costs about seven seconds.

The order and sizes of the ``rng`` calls in :meth:`TraceGenerator.generate`
are a compatibility contract: the golden digests, the paper figures and
every pinned test replay traces that are a function of that call
sequence.  ``tests/workload/reference_generator.py`` keeps the one-query-
at-a-time loop this module used to run, and the tests hold the two
equal row for row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.collector import paused_collector
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.simulation.faults import unit_hash
from repro.workload.trace import Trace, TraceQuery

DAY = 86400.0
HOUR = 3600.0

ROW_CHUNK = 1 << 16
"""Rows turned from array columns into ``TraceQuery`` tuples at a time.
The columns of one chunk live as Python lists (four boxed values a row)
only until ``tuple.__new__`` has copied them into its rows; all 624k
rows of the benchmark's hot trace at once read 20 % more peak memory
than the per-query loop had."""


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape parameters for one synthetic trace."""

    duration_days: float = 7.0
    queries_per_day: float = 40_000.0
    num_clients: int = 300
    zone_zipf_alpha: float = 1.15
    shared_interest_fraction: float = 0.7
    private_zones_per_client: int = 15
    name_zipf_alpha: float = 1.1
    diurnal_amplitude: float = 0.5
    qtype_mix: tuple[tuple[RRType, float], ...] = (
        (RRType.A, 0.94),
        (RRType.AAAA, 0.04),
        (RRType.MX, 0.02),
    )

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        if not 0.0 <= self.shared_interest_fraction <= 1.0:
            raise ValueError("shared_interest_fraction must be a fraction")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        total = sum(weight for _, weight in self.qtype_mix)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"qtype_mix weights sum to {total}, expected 1")


def _zipf_cdf(size: int, alpha: float) -> np.ndarray:
    """The CDF of a Zipf(``alpha``) law over ranks 1..``size``."""
    weights = np.arange(1, size + 1, dtype=np.float64) ** (-alpha)
    cdf: np.ndarray = np.cumsum(weights / weights.sum())
    # The running sum can stop an ulp or two short of 1; a draw above it
    # would make searchsorted answer ``size``, one past the last rank.
    cdf[-1] = 1.0
    return cdf


def _object_array(items: Sequence[object]) -> np.ndarray:
    """A 1-d array holding ``items`` themselves, for picking them by index."""
    array = np.empty(len(items), dtype=object)
    array[:] = items
    return array


class TraceGenerator:
    """Generates traces against a zone catalog.

    One generator instance can emit several traces; each call uses an
    independent seed so TRC1..TRC6 differ while staying reproducible.
    """

    def __init__(self, catalog: dict[Name, list[Name]], config: WorkloadConfig,
                 seed: int = 0) -> None:
        # Deterministic zone ordering, then a seeded popularity shuffle so
        # popularity is independent of construction order.
        zones = sorted(zone for zone, hosts in catalog.items() if hosts)
        if not zones:
            raise ValueError(
                f"catalog has no queryable hosts ({len(catalog)} zones, none "
                "with a host) — build the hierarchy first"
            )
        self.config = config
        self._seed = seed
        shuffle_rng = np.random.default_rng(seed)
        order = shuffle_rng.permutation(len(zones))
        self._zones: list[Name] = [zones[i] for i in order]
        self._hosts: list[list[Name]] = [catalog[zone] for zone in self._zones]
        self._zone_cdf = _zipf_cdf(len(self._zones), config.zone_zipf_alpha)

        # Every zone's hosts end to end: zone ``z``'s ``h``-th host is
        # ``_flat_hosts[_host_starts[z] + h]``.
        self._host_counts = np.array(
            [len(hosts) for hosts in self._hosts], dtype=np.int64
        )
        self._host_starts = np.cumsum(self._host_counts) - self._host_counts
        self._flat_hosts = _object_array(
            [host for hosts in self._hosts for host in hosts]
        )
        # Per-zone-size host CDFs (sizes are small; cache by size).
        self._host_cdfs: dict[int, np.ndarray] = {
            size: _zipf_cdf(size, config.name_zipf_alpha)
            for size in np.unique(self._host_counts).tolist()
        }
        self._qtype_table = _object_array(
            [rrtype for rrtype, _ in config.qtype_mix]
        )

    # -- public ---------------------------------------------------------------

    @paused_collector()
    def generate(self, name: str, stream: int = 0) -> Trace:
        """Produce one trace; ``stream`` decorrelates TRC1..TRCn.

        The ``rng`` calls below — which, in what order, of what size — fix
        the trace; everything after the last of them only rearranges what
        was drawn.  The collector is paused for the call: the rows are
        hundreds of thousands of frozen, acyclic objects, and a collector
        left on re-walks them (and the whole hierarchy) some ten times
        while they are being made.
        """
        config = self.config
        rng = np.random.default_rng((self._seed, stream, 0xD25))
        times = self._arrival_times(rng)
        count = len(times)

        clients = rng.integers(0, config.num_clients, size=count)
        private_sets = rng.integers(
            0,
            len(self._zones),
            size=(config.num_clients, config.private_zones_per_client),
        )

        shared_mask = rng.random(count) < config.shared_interest_fraction
        zone_indices = np.empty(count, dtype=np.int64)
        shared_count = int(shared_mask.sum())
        zone_indices[shared_mask] = np.searchsorted(
            self._zone_cdf, rng.random(shared_count)
        )
        private_mask = ~shared_mask
        private_count = count - shared_count
        slot = rng.integers(0, config.private_zones_per_client, size=private_count)
        zone_indices[private_mask] = private_sets[clients[private_mask], slot]

        host_draws = rng.random(count)
        qtypes, qtype_weights = zip(*config.qtype_mix)
        type_indices = rng.choice(
            len(qtypes), size=count, p=np.asarray(qtype_weights)
        )

        host_positions = self._host_positions(zone_indices, host_draws)
        # Four columns feed the rows.  The others go now, so that the row
        # list grows into the room they leave instead of on top of it.
        del shared_mask, private_mask, slot, zone_indices, host_draws
        # ``tuple.__new__`` fills a row from its zipped fields in C:
        # ``TraceQuery(...)`` would run the NamedTuple's Python ``__new__``,
        # one frame per row.
        make_row = functools.partial(tuple.__new__, TraceQuery)
        queries: list[TraceQuery] = []
        for begin in range(0, count, ROW_CHUNK):
            chunk = slice(begin, begin + ROW_CHUNK)
            # tolist() boxes to plain float/int: no numpy scalar reaches a
            # row, and from there the metrics or a JSON dump.
            queries.extend(map(make_row, zip(
                times[chunk].tolist(),
                clients[chunk].tolist(),
                self._flat_hosts[host_positions[chunk]].tolist(),
                self._qtype_table[type_indices[chunk]].tolist(),
            )))
        return Trace(
            name=name, duration=config.duration_days * DAY, queries=queries
        )

    # -- internals ---------------------------------------------------------------

    def _host_positions(
        self, zone_indices: np.ndarray, host_draws: np.ndarray
    ) -> np.ndarray:
        """Where in ``_flat_hosts`` each query's name is.

        A query's draw picks a rank within its zone by that zone's host
        CDF: one ``searchsorted`` per distinct list size covers them all.
        """
        host_counts = self._host_counts[zone_indices]
        positions: np.ndarray = self._host_starts[zone_indices]
        for size, cdf in self._host_cdfs.items():
            rows = np.flatnonzero(host_counts == size)
            positions[rows] += np.searchsorted(cdf, host_draws[rows])
        return positions

    def _arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        """Diurnal non-homogeneous Poisson arrivals over the full duration.

        Piecewise-constant hourly rates: ``rate(h) = base * (1 + A*sin)``,
        peaking mid-day, dipping overnight.
        """
        config = self.config
        hours = int(math.ceil(config.duration_days * 24))
        base_per_hour = config.queries_per_day / 24.0
        hour_indices = np.arange(hours)
        modulation = 1.0 + config.diurnal_amplitude * np.sin(
            2.0 * np.pi * ((hour_indices % 24) / 24.0) - np.pi / 2.0
        )
        lambdas = base_per_hour * modulation
        counts = rng.poisson(lambdas)
        pieces: list[np.ndarray] = []
        end = config.duration_days * DAY
        for hour, count in enumerate(counts):
            if count == 0:
                continue
            start = hour * HOUR
            stop = min(start + HOUR, end)
            if stop <= start:
                continue
            pieces.append(rng.uniform(start, stop, size=count))
        if not pieces:
            return np.empty(0, dtype=np.float64)
        times = np.concatenate(pieces)
        times = times[times < end]
        times.sort()
        return times


def flash_crowd_schedule(
    catalog: dict[Name, list[Name]],
    start: float,
    duration: float,
    queries_per_minute: float,
    hot_zones: int,
    zipf_alpha: float,
    seed: int = 0,
) -> tuple[tuple[float, Name], ...]:
    """Deterministic flash-crowd arrivals: ``(time, qname)`` pairs.

    A flash crowd is a *legitimate* surge — a few suddenly-hot names
    (breaking news, a viral link) drawing Zipf-skewed traffic on top of
    the base trace.  Unlike the generator above this is a pure function
    of its arguments: arrivals are evenly spaced and the per-arrival
    name pick is a BLAKE2b draw (:func:`repro.simulation.faults
    .unit_hash`), so the adversary harness can rebuild the identical
    schedule in every worker without numpy RNG state.

    The hot set is the first host of each of the first ``hot_zones``
    zones (sorted by apex), so it is stable across runs of the same
    catalog.
    """
    if duration <= 0.0 or queries_per_minute <= 0.0:
        raise ValueError("duration and queries_per_minute must be positive")
    if hot_zones < 1 or zipf_alpha <= 0.0:
        raise ValueError("hot_zones and zipf_alpha must be positive")
    zones = sorted(name for name, hosts in catalog.items() if hosts)
    targets = [catalog[zone][0] for zone in zones[:hot_zones]]
    if not targets:
        raise ValueError("catalog has no queryable hosts")
    weights = [1.0 / (rank + 1) ** zipf_alpha for rank in range(len(targets))]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    interval = 60.0 / queries_per_minute
    count = int(duration / interval)
    arrivals: list[tuple[float, Name]] = []
    for index in range(count):
        draw = unit_hash(seed, "flash", "", index)
        pick = 0
        while pick < len(cdf) - 1 and draw > cdf[pick]:
            pick += 1
        arrivals.append((start + index * interval, targets[pick]))
    return tuple(arrivals)

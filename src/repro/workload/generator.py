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
indices into flat object arrays built once per generator.  Those columns
are the trace: :class:`~repro.workload.trace.Trace` keeps them and makes
:class:`~repro.workload.trace.TraceQuery` rows only while it is read, so
``generate`` makes no Python object per query, and a paper-scale week of
6.3 million queries is 95 MB of arrays instead of ~0.95 GB of tuples.

The order and sizes of the ``rng`` calls in :meth:`TraceGenerator.generate`
are a compatibility contract: the golden digests, the paper figures and
every pinned test replay traces that are a function of that call
sequence.  ``tests/workload/reference_generator.py`` keeps the one-query-
at-a-time loop this module used to run, and the tests hold the two
equal row for row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.workload.trace import (
    ROW_CHUNK,
    Trace,
    TraceQueries,
    index_column,
    object_array,
)

# ROW_CHUNK is re-exported: tests size their traces by it.
__all__ = ["DAY", "HOUR", "ROW_CHUNK", "TraceGenerator", "WorkloadConfig"]

DAY = 86400.0
HOUR = 3600.0


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
        # ``_flat_hosts[_host_starts[z] + h]``.  Both tables are as narrow
        # as their values, and so is what a trace gathers from them.
        host_counts = np.array([len(hosts) for hosts in self._hosts], dtype=np.int64)
        self._flat_hosts = object_array(
            [host for hosts in self._hosts for host in hosts]
        )
        self._host_counts = index_column(host_counts, int(host_counts.max()) + 1)
        self._host_starts = index_column(
            np.cumsum(host_counts) - host_counts, len(self._flat_hosts)
        )
        # Per-zone-size host CDFs (sizes are small; cache by size).
        self._host_cdfs: dict[int, np.ndarray] = {
            size: _zipf_cdf(size, config.name_zipf_alpha)
            for size in np.unique(self._host_counts).tolist()
        }
        self._qtype_table = object_array(
            [rrtype for rrtype, _ in config.qtype_mix]
        )

    # -- public ---------------------------------------------------------------

    def generate(self, name: str, stream: int = 0) -> Trace:
        """Produce one trace; ``stream`` decorrelates TRC1..TRCn.

        The ``rng`` calls below — which, in what order, of what size and
        dtype — fix the trace; everything after the last of them only
        rearranges what was drawn.  Each index column is narrowed as soon
        as it is drawn and every intermediate is dropped after its last
        use, so that few whole-trace arrays are alive at once.
        """
        config = self.config
        rng = np.random.default_rng((self._seed, stream, 0xD25))
        times = self._arrival_times(rng)
        count = len(times)

        # These columns are the trace: a client is an index below
        # ``num_clients`` as a name is one into the flat host table.
        clients = index_column(
            rng.integers(0, config.num_clients, size=count), config.num_clients
        )
        private_sets = rng.integers(
            0,
            len(self._zones),
            size=(config.num_clients, config.private_zones_per_client),
        )

        shared_mask = rng.random(count) < config.shared_interest_fraction
        zone_indices = np.empty(count, dtype=np.min_scalar_type(len(self._zones)))
        shared_count = int(shared_mask.sum())
        zone_indices[shared_mask] = np.searchsorted(
            self._zone_cdf, rng.random(shared_count)
        )
        private_mask = ~shared_mask
        del shared_mask
        private_count = count - shared_count
        slot = rng.integers(0, config.private_zones_per_client, size=private_count)
        zone_indices[private_mask] = private_sets[clients[private_mask], slot]
        del private_mask, slot, private_sets

        host_draws = rng.random(count)
        qtypes, qtype_weights = zip(*config.qtype_mix)
        type_indices = index_column(
            rng.choice(len(qtypes), size=count, p=np.asarray(qtype_weights)),
            len(self._qtype_table),
        )
        name_ids = self._host_positions(zone_indices, host_draws)
        return Trace(name, config.duration_days * DAY, TraceQueries(
            times, clients, name_ids, self._flat_hosts,
            type_indices, self._qtype_table,
        ))

    # -- internals ---------------------------------------------------------------

    def _host_positions(
        self, zone_indices: np.ndarray, host_draws: np.ndarray
    ) -> np.ndarray:
        """Where in ``_flat_hosts`` each query's name is, as a name column.

        A query's draw picks a rank within its zone by that zone's host
        CDF: one ``searchsorted`` per distinct list size covers them all.
        """
        host_counts = self._host_counts[zone_indices]
        positions: np.ndarray = self._host_starts[zone_indices]
        for size, cdf in self._host_cdfs.items():
            rows = np.flatnonzero(host_counts == size)
            ranks = np.searchsorted(cdf, host_draws[rows])
            positions[rows] += ranks.astype(positions.dtype)
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

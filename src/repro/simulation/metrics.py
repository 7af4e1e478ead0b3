"""Counters and samplers behind every figure and table.

:class:`ReplayMetrics` is the one record of a replay: the resolver fills
it, and the batch runner returns it as is.  It holds

* whole-run totals (Table 1 "requests out", Table 2 message overhead);
* demand contacts per zone (the analytical model's rates);
* the attack-window totals (the failure rates of Figures 4–11);
* expiry-to-use gap samples (Figure 3);
* a time series of cache sizes (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.name import Name

DAY = 86400.0


@dataclass(frozen=True)
class MemorySample:
    """Cache occupancy at one instant."""

    time: float
    zones_cached: int
    records_cached: int


@dataclass(frozen=True, slots=True)
class GapSample:
    """One expiry-to-next-use gap for one zone (Figure 3).

    The paper: "we used these traces to measure the time duration
    between the expiration of a zone's IRR and the time the next query
    was sent to the zone."
    """

    zone: Name
    gap_seconds: float
    published_ttl: float

    @property
    def gap_days(self) -> float:
        return self.gap_seconds / DAY

    @property
    def gap_as_ttl_fraction(self) -> float:
        """Gap normalised by the lapsed copy's TTL (Figure 3, lower plot)."""
        if self.published_ttl <= 0:
            return float("inf")
        return self.gap_seconds / self.published_ttl


@dataclass
class WindowCounters:
    """Failure accounting restricted to the window ``[start, end)``."""

    start: float
    end: float
    sr_queries: int = 0
    sr_failures: int = 0
    cs_queries: int = 0
    cs_failures: int = 0

    @property
    def sr_failure_rate(self) -> float:
        """Fraction of stub-resolver queries that failed, in [0, 1]."""
        if self.sr_queries == 0:
            return 0.0
        return self.sr_failures / self.sr_queries

    @property
    def cs_failure_rate(self) -> float:
        """Fraction of caching-server queries that failed, in [0, 1]."""
        if self.cs_queries == 0:
            return 0.0
        return self.cs_failures / self.cs_queries


@dataclass
class ReplayMetrics:
    """Everything one trace replay measures.

    CS ("requests out") counters distinguish *demand* queries — those
    triggered by resolving a stub query — from *renewal* queries issued
    proactively by a renewal policy.  Failure rates use demand queries
    (the paper's "queries from the CSes"); message overhead uses the sum.

    Returned from worker processes by pickle: REP004 keeps Callable
    fields and lambdas out, and tests/experiments/test_parallel.py
    round-trips a record with every sample list filled.
    """

    # Stub-resolver side.
    sr_queries: int = 0
    sr_failures: int = 0
    sr_cache_hits: int = 0
    sr_nxdomain: int = 0
    sr_validation_failures: int = 0
    sr_stale_hits: int = 0

    # Renewal 2.0 accounting (zero unless `swr` / `decoupled` is armed).
    swr_refreshes: int = 0
    invalidations: int = 0

    # Caching-server side.
    cs_demand_queries: int = 0
    cs_demand_failures: int = 0
    cs_renewal_queries: int = 0
    cs_renewal_failures: int = 0

    # Demand contacts per zone (answered queries to its servers): the λ
    # the analytical availability model consumes.
    zone_contacts: dict[Name, int] = field(default_factory=dict)

    # Latency (virtual seconds spent waiting on the network).
    total_latency: float = 0.0

    # Traffic in octets (approximate wire sizes; see Message.wire_size).
    bytes_out: int = 0
    bytes_in: int = 0

    # The attack window, counted separately when the replay has one.
    window: WindowCounters | None = None

    # Expiry-to-use gaps (Figure 3), filled through `record_gap`.
    gap_samples: list[GapSample] = field(default_factory=list)

    # Cache-size time series (Figure 12).
    memory_samples: list[MemorySample] = field(default_factory=list)

    # Adversary accounting (all zero without an AdversarySpec; attack
    # stub queries are counted here and NOT in sr_queries, so the
    # availability figures stay legitimate-traffic-only and collateral
    # damage remains measurable).
    attack_stub_queries: int = 0
    attack_cs_queries: int = 0
    attack_failures: int = 0

    # Defense accounting.
    budget_exhaustions: int = 0
    nxns_capped: int = 0

    # Poisoning accounting (copied from the poisoner and the cache's
    # taint registry when the replay finalises).
    poison_attempts: int = 0
    poison_wins: int = 0
    poison_stored: int = 0
    poison_cured: int = 0
    poison_dwells: list[float] = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def record_sr_query(self, now: float, failed: bool, cache_hit: bool = False,
                        nxdomain: bool = False,
                        validation_failed: bool = False,
                        stale: bool = False) -> None:
        self.sr_queries += 1
        if failed:
            self.sr_failures += 1
        if cache_hit:
            self.sr_cache_hits += 1
        if nxdomain:
            self.sr_nxdomain += 1
        if validation_failed:
            self.sr_validation_failures += 1
        if stale:
            self.sr_stale_hits += 1
        window = self.window
        if window is not None and window.start <= now < window.end:
            window.sr_queries += 1
            if failed:
                window.sr_failures += 1

    def record_exchange(
        self,
        now: float,
        failed: bool,
        renewal: bool,
        bytes_out: int,
        bytes_in: int,
        latency: float,
    ) -> None:
        """One CS query attempt's full bookkeeping: its traffic, its
        demand/renewal count and, for demand traffic only, its latency
        and attack-window tally."""
        self.bytes_out += bytes_out
        self.bytes_in += bytes_in
        if renewal:
            self.cs_renewal_queries += 1
            if failed:
                self.cs_renewal_failures += 1
            return
        self.total_latency += latency
        self.cs_demand_queries += 1
        if failed:
            self.cs_demand_failures += 1
        window = self.window
        if window is not None and window.start <= now < window.end:
            window.cs_queries += 1
            if failed:
                window.cs_failures += 1

    def record_gap(self, zone: Name, gap_seconds: float,
                   published_ttl: float) -> None:
        """The caching server's ``gap_observer``: a zone's NS set was
        re-learned ``gap_seconds`` after it lapsed."""
        if gap_seconds < 0:
            raise ValueError(f"negative gap {gap_seconds} for {zone}")
        self.gap_samples.append(GapSample(zone, gap_seconds, published_ttl))

    def record_memory(self, sample: MemorySample) -> None:
        self.memory_samples.append(sample)

    # -- derived rates --------------------------------------------------------

    @property
    def sr_failure_rate(self) -> float:
        if self.sr_queries == 0:
            return 0.0
        return self.sr_failures / self.sr_queries

    @property
    def cs_failure_rate(self) -> float:
        if self.cs_demand_queries == 0:
            return 0.0
        return self.cs_demand_failures / self.cs_demand_queries

    @property
    def sr_attack_failure_rate(self) -> float:
        """SR failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.sr_failure_rate

    @property
    def cs_attack_failure_rate(self) -> float:
        """CS failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.cs_failure_rate

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of stub lookups answered from the cache."""
        if self.sr_queries == 0:
            return 0.0
        return self.sr_cache_hits / self.sr_queries

    @property
    def cs_queries_per_lookup(self) -> float:
        """Demand CS -> AN queries per stub lookup (tree-walk cost)."""
        if self.sr_queries == 0:
            return 0.0
        return self.cs_demand_queries / self.sr_queries

    @property
    def amplification_factor(self) -> float:
        """CS-side queries per injected attack query (the NXNS payoff)."""
        if self.attack_stub_queries == 0:
            return 0.0
        return self.attack_cs_queries / self.attack_stub_queries

    @property
    def total_outgoing(self) -> int:
        """All CS -> AN messages (demand + renewal): Table 2's currency."""
        return self.cs_demand_queries + self.cs_renewal_queries

    @property
    def stale_answer_rate(self) -> float:
        """Fraction of stub answers served from lapsed records."""
        if self.sr_queries == 0:
            return 0.0
        return self.sr_stale_hits / self.sr_queries

    @property
    def total_bytes(self) -> int:
        """Total traffic (both directions) in octets."""
        return self.bytes_out + self.bytes_in

    @property
    def mean_latency(self) -> float:
        """Average network wait per stub query (virtual seconds)."""
        if self.sr_queries == 0:
            return 0.0
        return self.total_latency / self.sr_queries

    def message_overhead_vs(self, baseline: ReplayMetrics) -> float:
        """Relative change in outgoing messages vs ``baseline``.

        +0.76 means 76 % more messages; -0.1 means 10 % fewer (the paper's
        Table 2 convention).  An empty baseline reads as zero overhead,
        matching the ``<= 0.0`` convention in ``analysis/``.
        """
        if baseline.total_outgoing <= 0:
            return 0.0
        return (self.total_outgoing - baseline.total_outgoing) / baseline.total_outgoing

    def byte_overhead_vs(self, baseline: ReplayMetrics) -> float:
        """Relative change in total traffic bytes vs ``baseline``; zero
        when the baseline moved no bytes."""
        if baseline.total_bytes <= 0:
            return 0.0
        return (self.total_bytes - baseline.total_bytes) / baseline.total_bytes

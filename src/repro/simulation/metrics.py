"""Counters and samplers behind every figure and table.

Two granularities:

* whole-run totals (Table 1 "requests out", Table 2 message overhead);
* per-window totals (the attack-period failure rates of Figures 4–11).

Memory samples (Figure 12) are a time series of cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemorySample:
    """Cache occupancy at one instant."""

    time: float
    zones_cached: int
    records_cached: int


@dataclass
class WindowCounters:
    """Failure accounting restricted to one time window."""

    start: float
    end: float
    sr_queries: int = 0
    sr_failures: int = 0
    cs_queries: int = 0
    cs_failures: int = 0

    def contains(self, now: float) -> bool:
        return self.start <= now < self.end

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


class ReplayRates:
    """The rates and totals derived from a replay's counters, shared by
    the live :class:`ReplayMetrics` and the picklable
    :class:`~repro.experiments.summary.ReplaySummary`."""

    sr_queries: int
    sr_failures: int
    sr_stale_hits: int
    cs_demand_queries: int
    cs_demand_failures: int
    cs_renewal_queries: int
    total_latency: float
    bytes_out: int
    bytes_in: int
    attack_stub_queries: int
    attack_cs_queries: int

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

    def message_overhead_vs(self, baseline: "ReplayRates") -> float:
        """Relative change in outgoing messages vs ``baseline``.

        +0.76 means 76 % more messages; -0.1 means 10 % fewer (the paper's
        Table 2 convention).  An empty baseline reads as zero overhead,
        matching the ``<= 0.0`` convention in ``analysis/``.
        """
        if baseline.total_outgoing <= 0:
            return 0.0
        return (self.total_outgoing - baseline.total_outgoing) / baseline.total_outgoing

    def byte_overhead_vs(self, baseline: "ReplayRates") -> float:
        """Relative change in total traffic bytes vs ``baseline``; zero
        when the baseline moved no bytes."""
        if baseline.total_bytes <= 0:
            return 0.0
        return (self.total_bytes - baseline.total_bytes) / baseline.total_bytes


@dataclass
class ReplayMetrics(ReplayRates):
    """Everything one trace replay measures.

    CS ("requests out") counters distinguish *demand* queries — those
    triggered by resolving a stub query — from *renewal* queries issued
    proactively by a renewal policy.  Failure rates use demand queries
    (the paper's "queries from the CSes"); message overhead uses the sum.
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

    # Latency (virtual seconds spent waiting on the network).
    total_latency: float = 0.0

    # Traffic in octets (approximate wire sizes; see Message.wire_size).
    bytes_out: int = 0
    bytes_in: int = 0

    # Optional attack-window accounting.
    windows: list[WindowCounters] = field(default_factory=list)

    # Cache-size time series (Figure 12).
    memory_samples: list[MemorySample] = field(default_factory=list)

    # Adversary accounting (all zero without an AdversarySpec; attack
    # stub queries are counted here and NOT in sr_queries, so the
    # availability figures stay legitimate-traffic-only and collateral
    # damage remains measurable).
    attack_stub_queries: int = 0
    attack_cs_queries: int = 0
    attack_failures: int = 0
    flash_queries: int = 0

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

    # -- configuration -------------------------------------------------------

    def watch_window(self, start: float, end: float) -> WindowCounters:
        """Track failures separately inside [start, end)."""
        window = WindowCounters(start=start, end=end)
        self.windows.append(window)
        return window

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
        for window in self.windows:
            if window.contains(now):
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
        for window in self.windows:
            if window.contains(now):
                window.cs_queries += 1
                if failed:
                    window.cs_failures += 1

    def record_memory(self, sample: MemorySample) -> None:
        self.memory_samples.append(sample)

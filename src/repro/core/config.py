"""Configuration for the resilience schemes a caching server runs.

The paper's evaluation compares seven system flavours; each is one
:class:`ResilienceConfig`, constructible through the named factories:

=====================================  =======================================
Paper system                           Factory
=====================================  =======================================
vanilla DNS                            ``ResilienceConfig.vanilla()``
TTL refresh                            ``ResilienceConfig.refresh()``
refresh + renewal (policy P, credit C) ``ResilienceConfig.refresh_renew(P, C)``
refresh + long TTL of N days           ``ResilienceConfig.refresh_long_ttl(N)``
refresh + renew + long TTL             ``ResilienceConfig.combination(...)``
=====================================  =======================================

``long_ttl`` is an *authoritative-side* change — the harness applies it to
the zone tree via :meth:`repro.hierarchy.tree.ZoneTree.apply_long_ttl` —
but it lives here so one object fully describes a scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.policies import RenewalPolicy, make_policy

DAY = 86400.0

PolicyFactory = Callable[[], RenewalPolicy]


RETRY_BACKOFF = 2.0
"""Multiplier between a server's successive retransmit timeouts."""


@dataclass(frozen=True)
class RetryPolicy:
    """Resolver-side retransmit behaviour for one server (frozen, picklable).

    BIND-flavoured: up to ``max_tries`` transmissions per server per
    resolution attempt, failed try ``n`` costing the network's timeout
    times ``RETRY_BACKOFF ** n`` — the real retransmit schedule, which
    latency accounting sums.  A server that fails ``holddown_failures``
    consecutive times is sidelined for ``holddown`` seconds (the
    dead-server hold-down), after which it is eligible again.
    """

    max_tries: int = 2
    """Transmissions per server before moving to the next candidate."""

    holddown_failures: int = 3
    """Consecutive failures before the server is sidelined."""

    holddown: Optional[float] = 900.0
    """Sideline interval in seconds; None disables the hold-down."""

    def __post_init__(self) -> None:
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")
        if self.holddown_failures < 1:
            raise ValueError(
                f"holddown_failures must be >= 1, got {self.holddown_failures}"
            )
        if self.holddown is not None and self.holddown <= 0.0:
            raise ValueError(f"holddown must be positive, got {self.holddown}")

    def try_cost(self, base_timeout: float, attempt: int) -> float:
        """The timeout paid for failed try number ``attempt`` (0-based)."""
        return base_timeout * RETRY_BACKOFF**attempt


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything that distinguishes one caching-server scheme from another."""

    ttl_refresh: bool = False
    """Reset cached IRR TTLs from the authority/additional sections of
    every authoritative response (paper §4, "TTL Refresh")."""

    renewal_policy: Optional[PolicyFactory] = None
    """Factory for a credit-based renewal policy, or None for no renewal."""

    long_ttl: Optional[float] = None
    """Authoritative-side IRR TTL override in seconds, or None."""

    serve_stale: bool = False
    """Ballani-style comparator: keep expired records and fall back to
    them, however stale, when authoritative servers are unreachable
    (related work §7)."""

    swr_grace: Optional[float] = None
    """Stale-while-revalidate grace window in seconds: a lookup that
    misses but finds a record expired no more than this long ago serves
    the stale RRset immediately and enqueues one deduplicated,
    renewal-tagged background refetch — in replay and in ``repro serve``
    alike, this is the only stale-while-revalidate path; None disables
    SWR."""

    update_channel: bool = False
    """Decoupled-TTL update channel: zone migrations publish
    invalidations that evict the stranded NS/glue and trigger a
    background re-learn, so long effective TTLs no longer pin clients to
    decommissioned servers ("Decoupling DNS Update Timing from TTL
    Values", PAPERS.md)."""

    dnssec_validation: bool = False
    """Validate lookups against the (simulated) DNSSEC chain: every
    signed zone on the query's chain must have a live cached DNSKEY, or
    one must be fetchable.  Paper §6 extension — makes IRR caching
    matter even more, since broken key chains turn into SERVFAILs."""

    cache_capacity: Optional[int] = None
    """Maximum cached RRset entries (LRU eviction when full); None means
    unbounded, the paper's assumption.  The bounded-cache ablation
    studies how eviction pressure interacts with IRR renewal."""

    prefer_fast_servers: bool = False
    """Order a zone's servers by smoothed observed RTT instead of
    rotating through them (BIND-style server selection)."""

    retry_policy: Optional[RetryPolicy] = None
    """Retransmit schedule + consecutive-failure hold-down per server,
    the resolver's only dead-server hold-down; None (the paper's
    baseline) sends exactly one query per server and sidelines none.
    When set, failed tries feed the smoothed-RTT estimate, so lossy
    servers lose their selection preference."""

    fetch_budget: Optional[int] = None
    """Upper bound on NS-address sub-resolutions one stub query may
    trigger (the NXNS work limit, DESIGN.md §16).  When the budget runs
    out the remaining glue-less servers are skipped — the lookup
    degrades to SERVFAIL instead of amplifying; None disables."""

    nxns_cap: Optional[int] = None
    """Upper bound on NS-address sub-resolutions a *single referral
    step* may trigger (the per-delegation NXNS cap).  Tighter than
    ``fetch_budget``: a crafted delegation with a huge NS set is clamped
    even when the overall budget would still allow it; None disables."""

    harden_ranking: bool = False
    """Poisoning defense: a live cached RRset with different data may
    only be replaced by *strictly* higher-ranked data (RFC 2181 already
    forbids lower-ranked replacement; this also rejects equal-rank
    overwrites, so an off-path forgery cannot displace a cached answer
    before it expires)."""

    source_entropy_bits: int = 0
    """Poisoning defense: extra bits of source-port/ID entropy an
    off-path attacker must guess, halving the forgery success
    probability per bit (0 models the fixed-port resolver DNS-CPM
    assumes)."""

    label: str = "vanilla"
    """Human-readable scheme name, used by reports and benches."""

    # -- factories ---------------------------------------------------------

    @classmethod
    def vanilla(cls) -> "ResilienceConfig":
        """Current DNS behaviour: no refresh, no renewal, zone TTLs as-is."""
        return cls(label="vanilla")

    @classmethod
    def refresh(cls) -> "ResilienceConfig":
        """TTL refresh only."""
        return cls(ttl_refresh=True, label="refresh")

    @classmethod
    def refresh_renew(
        cls, policy: str, credit: float, max_credit: float | None = None
    ) -> "ResilienceConfig":
        """TTL refresh plus a renewal policy.

        ``policy`` is one of ``"lru"``, ``"lfu"``, ``"a-lru"``, ``"a-lfu"``.
        """
        factory = _policy_factory(policy, credit, max_credit)
        return cls(
            ttl_refresh=True,
            renewal_policy=factory,
            label=f"refresh+{policy}{credit:g}",
        )

    @classmethod
    def refresh_long_ttl(cls, days: float) -> "ResilienceConfig":
        """TTL refresh plus zone operators raising IRR TTLs to ``days``."""
        return cls(
            ttl_refresh=True,
            long_ttl=days * DAY,
            label=f"refresh+ttl{days:g}d",
        )

    @classmethod
    def combination(
        cls,
        days: float = 3.0,
        policy: str = "a-lfu",
        credit: float = 3.0,
        max_credit: float | None = None,
    ) -> "ResilienceConfig":
        """The paper's hybrid: refresh + renewal + long TTL.

        Defaults match the paper's headline configuration (A-LFU renewal
        over 3-day IRR TTLs).
        """
        factory = _policy_factory(policy, credit, max_credit)
        return cls(
            ttl_refresh=True,
            renewal_policy=factory,
            long_ttl=days * DAY,
            label=f"combo+{policy}{credit:g}+ttl{days:g}d",
        )

    @classmethod
    def stale_serving(cls) -> "ResilienceConfig":
        """The Ballani & Francis comparator from related work."""
        return cls(serve_stale=True, label="serve-stale")

    @classmethod
    def swr(cls, grace: float = 3600.0) -> "ResilienceConfig":
        """Stale-while-revalidate: serve stale inside ``grace`` seconds
        past expiry while one renewal-tagged background refetch runs.

        Raises:
            ValueError: when ``grace`` is not positive.
        """
        if grace <= 0.0:
            raise ValueError(f"swr grace must be positive, got {grace}")
        return cls(
            ttl_refresh=True,
            swr_grace=grace,
            label=f"swr{grace:g}s",
        )

    @classmethod
    def decoupled(cls, days: float = 7.0) -> "ResilienceConfig":
        """Long effective TTLs decoupled from update timing: ``days``-day
        IRR TTLs plus the churn-event invalidation channel.

        Raises:
            ValueError: when ``days`` is not positive.
        """
        if days <= 0.0:
            raise ValueError(f"decoupled ttl days must be positive, got {days}")
        return cls(
            ttl_refresh=True,
            long_ttl=days * DAY,
            update_channel=True,
            label=f"decoupled{days:g}d",
        )

    def with_validation(self) -> "ResilienceConfig":
        """A copy with DNSSEC validation enabled (paper §6 extension)."""
        return replace(
            self, dnssec_validation=True, label=f"{self.label}+dnssec"
        )

    # -- helpers -------------------------------------------------------------

    def with_label(self, label: str) -> "ResilienceConfig":
        """A copy carrying a different display label."""
        return replace(self, label=label)

    def with_retries(self, policy: RetryPolicy) -> "ResilienceConfig":
        """A copy running ``policy``'s retransmit/hold-down machinery."""
        return replace(
            self, retry_policy=policy,
            label=f"{self.label}+retry{policy.max_tries}",
        )

    def with_defenses(
        self,
        fetch_budget: int | None = None,
        nxns_cap: int | None = None,
    ) -> "ResilienceConfig":
        """A copy with the NXNS work limits armed (None leaves one off).

        Raises:
            ValueError: when a supplied limit is not positive.
        """
        config = self
        if fetch_budget is not None:
            if fetch_budget < 1:
                raise ValueError(
                    f"fetch_budget must be positive, got {fetch_budget}"
                )
            config = replace(
                config, fetch_budget=fetch_budget,
                label=f"{config.label}+budget{fetch_budget}",
            )
        if nxns_cap is not None:
            if nxns_cap < 1:
                raise ValueError(f"nxns_cap must be positive, got {nxns_cap}")
            config = replace(
                config, nxns_cap=nxns_cap,
                label=f"{config.label}+cap{nxns_cap}",
            )
        return config

    def make_renewal_policy(self) -> RenewalPolicy | None:
        """Instantiate a fresh policy object (None when renewal is off)."""
        if self.renewal_policy is None:
            return None
        return self.renewal_policy()

    def describe(self) -> str:
        """One-line summary of the enabled mechanisms."""
        parts = []
        if self.ttl_refresh:
            parts.append("ttl-refresh")
        if self.renewal_policy is not None:
            parts.append(f"renewal({self.make_renewal_policy().name})")
        if self.long_ttl is not None:
            parts.append(f"long-ttl({self.long_ttl / DAY:g}d)")
        if self.serve_stale:
            parts.append("serve-stale")
        if self.swr_grace is not None:
            parts.append(f"swr({self.swr_grace:g}s)")
        if self.update_channel:
            parts.append("update-channel")
        if self.retry_policy is not None:
            parts.append(
                f"retries({self.retry_policy.max_tries}"
                f"x{RETRY_BACKOFF:g})"
            )
        if self.fetch_budget is not None:
            parts.append(f"fetch-budget({self.fetch_budget})")
        if self.nxns_cap is not None:
            parts.append(f"nxns-cap({self.nxns_cap})")
        if self.harden_ranking:
            parts.append("harden-ranking")
        if self.source_entropy_bits > 0:
            parts.append(f"entropy({self.source_entropy_bits}b)")
        if not parts:
            parts.append("vanilla")
        return " + ".join(parts)


@dataclass(frozen=True)
class _PolicyFactory:
    """A picklable renewal-policy factory.

    Configs cross process boundaries in the parallel replay runner, so
    the factory must be a plain data object rather than a closure.
    """

    policy: str
    credit: float
    max_credit: Optional[float] = None

    def __call__(self) -> RenewalPolicy:
        return make_policy(self.policy, self.credit, self.max_credit)


def _policy_factory(
    policy: str, credit: float, max_credit: float | None
) -> PolicyFactory:
    # Validate eagerly so a bad name fails at config time, not mid-replay.
    make_policy(policy, credit, max_credit)
    return _PolicyFactory(policy, credit, max_credit)

"""Empirical TTL distributions for infrastructure and data records.

The paper reports (§4, Long TTL): "current TTL values range from some
minutes to some days, most zones have a TTL value less or equal to 12
hours", and Figure 3 relies on IRR TTLs varying "greatly, from some
minutes to some days".  The default model reproduces that mixture.

Data (end-host) records skew much shorter — CDNs and load balancers pin
them to minutes — which is why the paper's schemes touch only IRRs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


@dataclass(frozen=True)
class TtlBucket:
    """One component of a TTL mixture: uniform in [low, high]."""

    weight: float
    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


_DEFAULT_IRR_BUCKETS = (
    TtlBucket(0.08, 5 * MINUTE, 30 * MINUTE),   # dynamic-DNS style zones
    TtlBucket(0.22, 30 * MINUTE, 2 * HOUR),
    TtlBucket(0.40, 2 * HOUR, 12 * HOUR),       # the bulk: <= 12 h
    TtlBucket(0.20, 12 * HOUR, 1 * DAY),
    TtlBucket(0.10, 1 * DAY, 3 * DAY),          # a long-TTL tail
)

_DEFAULT_DATA_BUCKETS = (
    TtlBucket(0.10, 1 * MINUTE, 5 * MINUTE),    # CDN / load-balanced hosts
    TtlBucket(0.30, 5 * MINUTE, 1 * HOUR),
    TtlBucket(0.40, 1 * HOUR, 4 * HOUR),        # e.g. www.ucla.edu at 4 h
    TtlBucket(0.20, 4 * HOUR, 1 * DAY),
)

_TLD_IRR_TTL = 2 * DAY  # zones right below the root carry long TTLs (paper §3.2)
_ROOT_IRR_TTL = 6 * DAY


@dataclass
class TtlModel:
    """Samples TTLs for the synthetic hierarchy.

    The mixture weights need not be normalised.  They are accumulated
    once, on construction: ``rng.choices`` would otherwise accumulate
    them on every draw, and a build draws once per host.
    """

    irr_buckets: tuple[TtlBucket, ...] = _DEFAULT_IRR_BUCKETS
    data_buckets: tuple[TtlBucket, ...] = _DEFAULT_DATA_BUCKETS
    root_irr_ttl: float = _ROOT_IRR_TTL
    tld_irr_ttl: float = _TLD_IRR_TTL
    _irr_cum_weights: list[float] = field(init=False, repr=False)
    _data_cum_weights: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # What ``rng.choices(weights=...)`` would make: the same floats,
        # so a draw makes the same ``random()`` call and picks the same.
        self._irr_cum_weights = list(
            accumulate(bucket.weight for bucket in self.irr_buckets)
        )
        self._data_cum_weights = list(
            accumulate(bucket.weight for bucket in self.data_buckets)
        )

    def sample_irr_ttl(self, rng: random.Random, depth: int) -> float:
        """An IRR TTL for a zone at ``depth`` labels below the root.

        The root and TLD layers use fixed long TTLs, matching the paper's
        observation that zones directly below the root tend to have
        relatively long TTL values while many zones below the TLDs are
        shorter.
        """
        if depth == 0:
            return self.root_irr_ttl
        if depth == 1:
            return self.tld_irr_ttl
        bucket = rng.choices(
            self.irr_buckets, cum_weights=self._irr_cum_weights
        )[0]
        return round(bucket.sample(rng))

    def sample_data_ttl(self, rng: random.Random) -> float:
        """A TTL for an end-host (data) record."""
        bucket = rng.choices(
            self.data_buckets, cum_weights=self._data_cum_weights
        )[0]
        return round(bucket.sample(rng))

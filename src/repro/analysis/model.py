"""Analytical model of IRR cache availability (renewal theory).

The paper evaluates its schemes purely by simulation; this module adds a
closed-form companion model and the machinery to validate it against the
simulator (``experiments.model_validation``).

Model a zone whose authoritative servers the caching server contacts as
a Poisson process with rate ``lam`` (contacts per second), and whose IRR
TTL is ``ttl``.  The probability that the zone's IRRs are cached at a
random instant:

* **vanilla** — the IRR countdown starts at a contact and is *not*
  refreshed; after expiry the next contact restarts it.  Classic
  alternating renewal process: cached fraction ``lam*ttl / (1 + lam*ttl)``.
* **refresh** — every contact restarts the countdown; the IRRs lapse only
  when an inter-contact gap exceeds the TTL.  The long-run uncached
  fraction equals ``E[(gap - ttl)+] / E[gap] = exp(-lam*ttl)`` for
  exponential gaps, so the cached fraction is ``1 - exp(-lam*ttl)``.
* **refresh + renewal with credit C** — each lapse is preceded by up to
  ``C`` funded refetches, extending the effective window to
  ``(1 + C) * ttl``: cached fraction ``1 - exp(-lam*(1+C)*ttl)``.
* **long TTL** — the refresh formula with the overridden TTL.

These are steady-state approximations: they assume Poisson contacts
(ignoring diurnal modulation) and ignore cold-start transients, which is
exactly what the validation experiment quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.dns.name import Name


def vanilla_cached_fraction(lam: float, ttl: float) -> float:
    """P(IRRs cached) without refresh: ``lam*ttl / (1 + lam*ttl)``."""
    _check(lam, ttl)
    if lam <= 0.0:
        return 0.0
    return (lam * ttl) / (1.0 + lam * ttl)


def refresh_cached_fraction(lam: float, ttl: float) -> float:
    """P(IRRs cached) with TTL refresh: ``1 - exp(-lam*ttl)``."""
    _check(lam, ttl)
    return 1.0 - math.exp(-lam * ttl)


def renewal_cached_fraction(lam: float, ttl: float, credit: float) -> float:
    """P(IRRs cached) with refresh + credit-C renewal."""
    _check(lam, ttl)
    if credit < 0:
        raise ValueError("credit must be non-negative")
    return 1.0 - math.exp(-lam * (1.0 + credit) * ttl)


def _check(lam: float, ttl: float) -> None:
    if lam < 0:
        raise ValueError("rate must be non-negative")
    if ttl <= 0:
        raise ValueError("ttl must be positive")


@dataclass(frozen=True)
class SchemeModel:
    """A scheme's closed-form cached-fraction predictor."""

    name: str
    kind: str  # "vanilla" | "refresh" | "renewal"
    credit: float = 0.0
    ttl_override: float | None = None

    def cached_fraction(self, lam: float, ttl: float) -> float:
        effective_ttl = self.ttl_override if self.ttl_override else ttl
        if self.kind == "vanilla":
            return vanilla_cached_fraction(lam, effective_ttl)
        if self.kind == "refresh":
            return refresh_cached_fraction(lam, effective_ttl)
        if self.kind == "renewal":
            return renewal_cached_fraction(lam, effective_ttl, self.credit)
        raise ValueError(f"unknown model kind {self.kind!r}")


def predict_cached_zone_count(
    model: SchemeModel,
    contact_rates: Mapping[Name, float],
    irr_ttls: Mapping[Name, float],
) -> float:
    """Expected number of zones with live IRRs at a random instant.

    Sums per-zone probabilities; zones without a known TTL are skipped.
    """
    expected = 0.0
    for zone, lam in contact_rates.items():
        ttl = irr_ttls.get(zone)
        if ttl is None or ttl <= 0:
            continue
        expected += model.cached_fraction(lam, ttl)
    return expected

"""Credit-based IRR renewal policies (paper §4, "TTL Renewal").

Each zone carries a credit balance.  Every time the caching server uses
the zone (sends a query to its authoritative servers), the policy tops up
the credit; every time the zone's IRRs are about to expire, the renewal
manager spends one credit to refetch them.  A zone whose credit is
exhausted simply lapses from the cache.

The four policies differ only in the top-up rule:

* **LRU**     — ``credit = C`` (reset on every use; recently used zones
  survive, like an LRU eviction order).
* **LFU**     — ``credit += C`` capped at ``M`` (frequently used zones
  accumulate credit, like LFU).
* **A-LRU**   — ``credit = C * 86400 / TTL`` (adaptive: the extra cache
  time is ``C`` *days* regardless of the zone's TTL).
* **A-LFU**   — ``credit += C * 86400 / TTL`` capped at ``M``.

Credits are floats; a renewal spends one whole credit, so an adaptive
credit of 1.5 buys one renewal with 0.5 left to top up later.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.dns.name import Name

DAY = 86400.0


class RenewalPolicy(ABC):
    """Tracks per-zone renewal credit.

    Balances are keyed by the zone's interned :class:`Name`, which
    hashes by identity: credit is topped up on every zone contact, so
    the table sits on the replay hot path.
    """

    #: Display name, e.g. ``"a-lfu(c=3)"``.
    name: str

    def __init__(self) -> None:
        self._credits: dict[Name, float] = {}

    @abstractmethod
    def on_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        """Top up ``zone``'s credit after the CS queried its servers."""

    def take_renewal_credit(self, zone: Name) -> bool:
        """Spend one credit for a renewal refetch; False when broke."""
        balance = self._credits.get(zone, 0.0)
        if balance < 1.0:
            return False
        self._credits[zone] = balance - 1.0
        return True

    def credit_of(self, zone: Name) -> float:
        """Current balance (0 for unknown zones)."""
        return self._credits.get(zone, 0.0)

    def forget(self, zone: Name) -> None:
        """Drop state for a zone that left the cache."""
        self._credits.pop(zone, None)

    def tracked_zones(self) -> int:
        """How many zones hold state (memory accounting)."""
        return len(self._credits)

    def balances(self) -> dict[Name, float]:
        """A snapshot of every zone's credit balance (for validation)."""
        return dict(self._credits)


class LRUPolicy(RenewalPolicy):
    """Reset-to-C on use: unused zones expire first."""

    def __init__(self, credit: float = 3.0) -> None:
        super().__init__()
        if credit < 0:
            raise ValueError("credit must be non-negative")
        self.credit = credit
        self.name = f"lru(c={credit:g})"

    def on_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        self._credits[zone] = self.credit


class LFUPolicy(RenewalPolicy):
    """Accumulate-C on use, capped: rarely used zones expire first."""

    def __init__(self, credit: float = 3.0, max_credit: float | None = None) -> None:
        super().__init__()
        if credit < 0:
            raise ValueError("credit must be non-negative")
        self.credit = credit
        self.max_credit = 10.0 * credit if max_credit is None else max_credit
        if self.max_credit < credit:
            raise ValueError("max_credit must be at least the per-use credit")
        self.name = f"lfu(c={credit:g},m={self.max_credit:g})"

    def on_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        balance = self._credits.get(zone, 0.0) + self.credit
        self._credits[zone] = min(balance, self.max_credit)


class AdaptiveLRUPolicy(RenewalPolicy):
    """LRU with TTL-normalised credit: ~C extra *days* in cache for all zones."""

    def __init__(self, credit: float = 3.0) -> None:
        super().__init__()
        if credit < 0:
            raise ValueError("credit must be non-negative")
        self.credit = credit
        self.name = f"a-lru(c={credit:g})"

    def on_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        if irr_ttl <= 0:
            raise ValueError(f"non-positive IRR TTL {irr_ttl} for {zone}")
        self._credits[zone] = self.credit * DAY / irr_ttl


class AdaptiveLFUPolicy(RenewalPolicy):
    """LFU with TTL-normalised credit, capped at ``max_credit`` renewals."""

    def __init__(self, credit: float = 3.0, max_credit: float | None = None) -> None:
        super().__init__()
        if credit < 0:
            raise ValueError("credit must be non-negative")
        self.credit = credit
        # The adaptive increment for a tiny-TTL zone can be huge (a
        # 5-minute zone earns 288*C per use); the cap is what keeps very
        # popular zones from accruing unbounded renewals (paper §4).
        self.max_credit = 30.0 * credit if max_credit is None else max_credit
        self.name = f"a-lfu(c={credit:g},m={self.max_credit:g})"

    def on_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        if irr_ttl <= 0:
            raise ValueError(f"non-positive IRR TTL {irr_ttl} for {zone}")
        balance = self._credits.get(zone, 0.0) + self.credit * DAY / irr_ttl
        self._credits[zone] = min(balance, self.max_credit)


_POLICY_KINDS = {
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
    "a-lru": AdaptiveLRUPolicy,
    "a-lfu": AdaptiveLFUPolicy,
}


def make_policy(
    kind: str, credit: float = 3.0, max_credit: float | None = None
) -> RenewalPolicy:
    """Build a policy by name: ``lru`` / ``lfu`` / ``a-lru`` / ``a-lfu``.

    Raises:
        ValueError: for an unknown policy name.
    """
    try:
        cls = _POLICY_KINDS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {kind!r}; expected one of {sorted(_POLICY_KINDS)}"
        ) from None
    if cls in (LFUPolicy, AdaptiveLFUPolicy):
        return cls(credit, max_credit)
    return cls(credit)


def policy_names() -> tuple[str, ...]:
    """The recognised policy kind strings."""
    return tuple(_POLICY_KINDS)

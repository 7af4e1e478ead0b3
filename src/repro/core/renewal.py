"""Expiry-driven IRR renewal (paper §4, "TTL Renewal").

A :class:`RenewalManager` keeps one timer per zone whose IRRs are cached.
Just before the NS set expires the timer fires:

* if the cached expiry moved forward meanwhile (a refresh or a demand
  re-fetch happened), the timer simply rearms at the new expiry;
* otherwise, if the policy still has credit for the zone, one credit is
  spent and the IRRs are refetched **from the zone's own servers** — the
  double-headed arrow in the paper's Figure 2;
* with no credit (or a failed refetch, e.g. the zone is under attack),
  the records lapse and the zone's policy state is forgotten.

The manager never asks its :class:`~repro.core.clock.Clock` the time:
each notification carries its caller's ``now``, and a timer body
receives its fire time.  The clock only arms and cancels timers.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.core.cache import DnsCache
from repro.core.clock import Clock
from repro.core.policies import RenewalPolicy
from repro.dns.name import Name
from repro.dns.rrtypes import RRType
from repro.obs.events import EventBus, EventKind

#: Seconds before expiry at which the refetch fires ("just before they
#: are ready to expire").
RENEWAL_LEAD = 1.0

_NS = RRType.NS

#: Slack when deciding whether an expiry "moved forward" (avoids rearm
#: storms from float jitter).
_EPSILON = 1e-6

RefetchFn = Callable[[Name, float], bool]


class RenewalManager:
    """Schedules and executes credit-funded IRR refetches."""

    def __init__(
        self,
        policy: RenewalPolicy,
        clock: Clock,
        cache: DnsCache,
        refetch: RefetchFn,
        jitter_fraction: float = 0.0,
        rng: "random.Random | None" = None,
        observer: "EventBus | None" = None,
    ) -> None:
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.observer = observer
        self.policy = policy
        # Timers run against the Clock protocol: the replay's engine
        # itself, or a WallClock under `repro serve`.  Expiry instants are
        # armed via schedule — an absolute time squeezed through a
        # relative delay is not float-exact, and the byte-identical
        # event-log guarantee rides on those exact fire times.
        self._clock = clock
        self._cache = cache
        self._refetch = refetch
        self._jitter_fraction = jitter_fraction
        self._rng = rng or random.Random(0)
        # Timer tokens from the clock (the engine's flat event queue
        # during a replay, DESIGN §13).
        self._timers: dict[Name, int] = {}
        self._armed_for: dict[Name, float] = {}
        self.renewals_attempted = 0
        self.renewals_succeeded = 0
        self.renewals_failed = 0
        self.lapses = 0

    # -- notifications from the caching server ------------------------------

    def note_zone_use(self, zone: Name, irr_ttl: float, now: float) -> None:
        """The CS contacted ``zone``'s servers: top up its credit."""
        self.policy.on_zone_use(zone, irr_ttl, now)

    def note_irrs_cached(self, zone: Name, expires_at: float, now: float) -> None:
        """The NS set for ``zone`` was stored/refreshed at ``now``; (re)arm
        its timer."""
        armed_at = self._armed_for.get(zone)
        if armed_at is not None and abs(armed_at - expires_at) < _EPSILON:
            return
        clock = self._clock
        existing = self._timers.get(zone)
        if existing is not None:
            clock.cancel(existing)
        fire_at = expires_at - RENEWAL_LEAD
        if self._jitter_fraction > 0.0:
            # Refetch a little early, by a random share of the remaining
            # lifetime: real caches learn/refresh zones at uncorrelated
            # moments, so their renewal phases are spread out.  Without
            # this a cold-start simulation renews every zone learned at
            # t=0 in lockstep, which manufactures synchronised mass
            # expiries (e.g. all TLD keys dying at the attack start).
            # `uniform(0, share)` is `share * random()` to the last bit.
            remaining = expires_at - now
            if remaining < 0.0:
                remaining = 0.0
            fire_at -= self._jitter_fraction * remaining * self._rng.random()
        if fire_at < now:
            fire_at = now
        self._timers[zone] = clock.schedule(
            fire_at, lambda now, zone=zone: self._on_timer(zone, now)
        )
        self._armed_for[zone] = expires_at

    def forget_zone(self, zone: Name) -> None:
        """Drop timers and credit for a zone (delegation removed, etc.)."""
        token = self._timers.pop(zone, None)
        if token is not None:
            self._clock.cancel(token)
        self._armed_for.pop(zone, None)
        self.policy.forget(zone)

    # -- timer body -----------------------------------------------------------

    def _on_timer(self, zone: Name, now: float) -> None:
        self._timers.pop(zone, None)
        armed_expiry = self._armed_for.pop(zone, None)
        current_expiry = self._cache.expires_at(zone, _NS, now)
        if current_expiry is None:
            # Already lapsed or evicted (e.g. removed by delegation-change
            # handling or capacity pressure); clean up the policy state
            # but do not count a lapse — nothing expired *under renewal*,
            # and counting evictions here inflates the metric.
            self._lapse(zone, now, count=False)
            return
        if armed_expiry is not None and current_expiry > armed_expiry + _EPSILON:
            # Something refreshed the IRRs since we armed; rearm silently.
            self.note_irrs_cached(zone, current_expiry, now)
            return
        if not self.policy.take_renewal_credit(zone):
            self._lapse(zone, now)
            return
        self.renewals_attempted += 1
        obs = self.observer
        if obs is not None:
            obs.emit(EventKind.RENEWAL_SPEND, now, zone=str(zone))
        if self._refetch(zone, now):
            self.renewals_succeeded += 1
            if obs is not None:
                obs.emit(EventKind.RENEWAL_RENEWED, now, zone=str(zone))
            # A successful refetch re-enters note_irrs_cached via the
            # caching server's ingest path; if it somehow did not (e.g.
            # equal-rank non-refresh edge), rearm from the cache state.
            # A refreshed expiry inside the renewal lead still gets a
            # timer (clamped to fire immediately by note_irrs_cached);
            # leaving it timerless would let the zone expire silently
            # with no lapse count and orphaned policy credit.
            if zone not in self._timers:
                refreshed_expiry = self._cache.expires_at(zone, _NS, now)
                if refreshed_expiry is not None:
                    self.note_irrs_cached(zone, refreshed_expiry, now)
                else:
                    # The "successful" refetch stored nothing live
                    # (zero/elapsed TTL): account it as a lapse.
                    self._lapse(zone, now)
        else:
            # Refetch failed (zone under attack / unreachable): the
            # records lapse at their natural expiry.
            self.renewals_failed += 1
            self._lapse(zone, now)

    def _lapse(self, zone: Name, now: float, count: bool = True) -> None:
        if count:
            self.lapses += 1
            if self.observer is not None:
                self.observer.emit(EventKind.RENEWAL_LAPSE, now, zone=str(zone))
        self.policy.forget(zone)

    # -- introspection -----------------------------------------------------------

    def armed_timer_count(self) -> int:
        """Zones with a pending renewal timer."""
        return len(self._timers)

    def armed_zones(self) -> tuple[Name, ...]:
        """The zones with a pending renewal timer (for validation)."""
        return tuple(self._timers)

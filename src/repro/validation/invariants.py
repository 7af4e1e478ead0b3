"""Structural invariant checks for the cache and the renewal manager.

These are white-box checks: they read private state (`_entries`, the
policy's credit table) on purpose, because the whole point is to catch
the bookkeeping drifting away from the ground truth.  Each check raises
:class:`~repro.validation.errors.InvariantViolation` naming the failed
invariant; a clean pass returns None.

Invariants checked:

* ``cache-capacity`` — a bounded cache never holds more than
  ``max_entries`` entries.
* ``cache-entry-sanity`` — every entry's lifetime is non-negative and no
  longer than ``min(published_ttl, max_effective_ttl)``.
* ``renewal-armed-live`` — every armed renewal timer belongs to a zone
  whose NS set is still live (a timer on a dead zone means a refetch
  result was silently dropped).
* ``renewal-credit-sign`` — no zone's credit balance is negative.
* ``renewal-accounting`` — ``renewals_attempted`` equals
  ``renewals_succeeded + renewals_failed``.
* ``renewal-orphan-credit`` — every zone holding credit either has an
  armed timer or a live NS entry.  This is the signature the
  silent-drop bug leaves behind: a "successful" refetch whose records
  expired inside the renewal lead used to strand the zone's credit with
  no timer and no data.  Suppressed when ``allow_stale_credit`` is set,
  because the serve-stale comparator legitimately tops up credit for
  zones contacted via lapsed NS sets.
* ``cache-taint-accounting`` — the poison registry and the per-entry
  taint flags describe the same key set, and each registered rank
  matches what the entry actually stores.
* ``cache-taint-rank`` — a poisoned entry never *silently* outranks the
  authoritative data it displaced: its rank must have been allowed to
  replace the displaced rank under RFC 2181, and under hardened
  ingestion it must be strictly higher (equal-rank displacement is
  exactly what ``harden_ranking`` forbids).
"""

from __future__ import annotations

from repro.core.cache import DnsCache, split_key
from repro.core.renewal import RenewalManager
from repro.validation.errors import InvariantViolation

#: Slack for float lifetime arithmetic (ttl additions are exact in the
#: simulator, but keep a margin against representation noise).
_LIFETIME_SLACK = 1e-9


def check_cache_invariants(cache: DnsCache, now: float) -> None:
    """Verify the cache's per-entry bookkeeping and capacity."""
    entries = cache._entries  # white-box census by design
    for key, entry in entries.items():
        name, rrtype = split_key(key)
        if entry.published_ttl < 0:
            raise InvariantViolation(
                f"{name}/{rrtype.name}: negative published TTL "
                f"{entry.published_ttl}",
                check="cache-entry-sanity",
            )
        lifetime = entry.expires_at - entry.stored_at
        limit = entry.published_ttl
        if cache.max_effective_ttl is not None:
            limit = min(limit, cache.max_effective_ttl)
        if lifetime < 0 or lifetime > limit + _LIFETIME_SLACK:
            raise InvariantViolation(
                f"{name}/{rrtype.name}: lifetime {lifetime:g}s outside "
                f"[0, {limit:g}] (stored_at={entry.stored_at:g}, "
                f"expires_at={entry.expires_at:g})",
                check="cache-entry-sanity",
            )
    if cache.max_entries is not None and len(entries) > cache.max_entries:
        raise InvariantViolation(
            f"{len(entries)} entries stored with max_entries="
            f"{cache.max_entries}",
            check="cache-capacity",
        )
    _check_taint_invariants(cache)


def _check_taint_invariants(cache: DnsCache) -> None:
    """The poison-marker checks (part of ``check_cache_invariants``)."""
    entries = cache._entries  # white-box census by design
    registry = cache.tainted_entries()
    flagged = {key for key, entry in entries.items() if entry.tainted}
    if flagged != registry.keys():
        only_flag = [split_key(k) for k in sorted(flagged - registry.keys())]
        only_reg = [split_key(k) for k in sorted(registry.keys() - flagged)]
        raise InvariantViolation(
            f"taint registry and entry flags disagree: flagged-only="
            f"{only_flag}, registry-only={only_reg}",
            check="cache-taint-accounting",
        )
    for key, (taint_time, rank, displaced) in registry.items():
        name, rrtype = split_key(key)
        entry = entries[key]
        if entry.rank != rank:
            raise InvariantViolation(
                f"{name}/{rrtype.name}: tainted entry stores rank "
                f"{entry.rank.name} but was registered at {rank.name}",
                check="cache-taint-accounting",
            )
        if entry.stored_at < taint_time:
            raise InvariantViolation(
                f"{name}/{rrtype.name}: tainted entry stored at "
                f"{entry.stored_at:g}, before its taint time {taint_time:g}",
                check="cache-taint-accounting",
            )
        if displaced is None:
            continue
        if not rank.may_replace(displaced):
            raise InvariantViolation(
                f"{name}/{rrtype.name}: poisoned entry of rank {rank.name} "
                f"silently displaced live {displaced.name} data, which RFC "
                f"2181 ranking forbids",
                check="cache-taint-rank",
            )
        if cache.harden_ranking and rank == displaced:
            raise InvariantViolation(
                f"{name}/{rrtype.name}: poisoned entry displaced live "
                f"{displaced.name} data at equal rank despite hardened "
                f"ingestion",
                check="cache-taint-rank",
            )


def check_renewal_invariants(
    manager: RenewalManager,
    cache: DnsCache,
    now: float,
    allow_stale_credit: bool = False,
) -> None:
    """Verify the renewal manager's timers, credits and accounting."""
    armed = manager.armed_zones()
    for zone in armed:
        if cache.zone_ns_expiry(zone, now) is None:
            raise InvariantViolation(
                f"renewal timer armed for {zone} but its NS set is not "
                f"live at now={now:g}",
                check="renewal-armed-live",
            )
    balances = manager.policy.balances()
    armed_set = frozenset(armed)
    for zone in sorted(balances):
        credit = balances[zone]
        if credit < 0:
            raise InvariantViolation(
                f"{zone} has negative renewal credit {credit:g}",
                check="renewal-credit-sign",
            )
        if (
            credit > 0
            and not allow_stale_credit
            and zone not in armed_set
            and cache.zone_ns_expiry(zone, now) is None
        ):
            raise InvariantViolation(
                f"{zone} holds {credit:g} renewal credit but has neither "
                f"an armed timer nor a live NS set at now={now:g} "
                f"(silently dropped refetch?)",
                check="renewal-orphan-credit",
            )
    expected = manager.renewals_succeeded + manager.renewals_failed
    if manager.renewals_attempted != expected:
        raise InvariantViolation(
            f"renewals_attempted={manager.renewals_attempted} != "
            f"succeeded({manager.renewals_succeeded}) + "
            f"failed({manager.renewals_failed})",
            check="renewal-accounting",
        )

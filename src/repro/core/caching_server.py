"""The caching server (CS): a full iterative resolver with the paper's
resilience schemes wired in.

One :class:`CachingServer` models the recursive resolver of an
organisation.  It is primed with the root zone's IRRs ("every CS is
hard-coded with the IRRs of the root zone"), resolves stub queries by
walking the delegation tree from the deepest cached zone, and — depending
on its :class:`~repro.core.config.ResilienceConfig` — refreshes IRR TTLs
from every authoritative response, renews expiring IRRs with credit
policies, and/or serves stale data when authorities are unreachable.

Metric conventions (matching the paper's evaluation):

* every stub query is recorded once, failed or not (Figures 4–11, upper
  graphs);
* every CS→AN query attempt is recorded, failed (blocked / lame) or
  answered (lower graphs; Table 1 "requests out"; Table 2 messages);
* renewal refetches are tagged separately so failure rates stay
  demand-driven while message overhead counts everything.
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.core.cache import DnsCache, NegativeVerdict
from repro.core.clock import Clock
from repro.core.config import DAY, ResilienceConfig, RetryPolicy
from repro.core.renewal import RenewalManager
from repro.dns.errors import InvariantError
from repro.dns.message import Message, Question
from repro.dns.name import Name, root_name
from repro.dns.records import InfrastructureRecordSet, RRset
from repro.dns.rrtypes import RRTYPE_BITS, RRClass, RRType
from repro.obs.events import EventBus, EventKind
from repro.simulation.metrics import ReplayMetrics

if TYPE_CHECKING:
    from repro.simulation.network import Network

# Resolver limits: fixed properties of every caching server, not choices
# that distinguish one scheme from another.
MAX_EFFECTIVE_TTL = 7 * DAY
"""Cap on any cached TTL — caching servers "do not accept arbitrary
large TTL values (more than 7 days)" (paper §6)."""

NEGATIVE_TTL = 3600.0
"""How long a negative answer is cached when its response carries no SOA."""

RENEWAL_JITTER = 0.05
"""Renewal refetches fire up to this fraction of the remaining TTL early
(seeded, deterministic), desynchronising renewal phases the way real
caches' uncorrelated learn times do."""

MAX_CNAME_CHAIN = 8
"""Steps one lookup takes before it fails: each probes the cache, then
follows one cached CNAME link or makes one fetch.  A fully cached chain
of 7 links answers (7 steps follow the links, the 8th finds the target);
one of 8 links fails without a query.  A fetch takes a step of its own,
and the links it brings back are followed one step each."""

MAX_REFERRALS = 30
"""Referral steps one iterative fetch takes before it fails."""

MAX_FETCH_DEPTH = 6
"""Recursion limit for resolving out-of-bailiwick NS addresses."""

MAX_SERVERS_PER_ZONE = 3
"""Servers of one zone tried per referral step."""

GapObserver = Callable[[Name, float, float], None]
"""Called as ``observer(zone, gap_seconds, published_ttl)`` when a zone's
IRRs are re-learned after having lapsed (Figure 3's measurement)."""


class ResolutionOutcome(enum.Enum):
    """How a stub query ended."""

    CACHE_HIT = "cache-hit"
    ANSWERED = "answered"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    STALE_HIT = "stale-hit"
    FAILURE = "failure"
    VALIDATION_FAILURE = "validation-failure"
    """The data was obtained but the DNSSEC chain could not be
    established (a SERVFAIL to the stub — counts as a failed lookup)."""

    def __init__(self, label: str) -> None:
        self.failed: bool = label in ("failure", "validation-failure")
        """Whether the stub got no usable answer (a SERVFAIL).  Fixed
        per member when the class is built: every stub query reads it,
        so it is an attribute, not a membership test per call."""


class Resolution(NamedTuple):
    """A stub query's result: outcome plus the answer set, if any.

    A ``NamedTuple`` like the other per-operation records
    (:class:`~repro.core.cache.PutResult`,
    :class:`~repro.simulation.network.QueryResult`): one is built per
    stub query, and a tuple is filled in one C call.
    """

    outcome: ResolutionOutcome
    answer: RRset | None = None

    @property
    def failed(self) -> bool:
        return self.outcome.failed


# The outcomes as module constants: the stub path tests them by identity
# and `_fetch` returns four of them as its verdicts.
_CACHE_HIT = ResolutionOutcome.CACHE_HIT
_ANSWERED = ResolutionOutcome.ANSWERED
_NXDOMAIN = ResolutionOutcome.NXDOMAIN
_NODATA = ResolutionOutcome.NODATA
_STALE_HIT = ResolutionOutcome.STALE_HIT
_FAILURE = ResolutionOutcome.FAILURE
_VALIDATION_FAILURE = ResolutionOutcome.VALIDATION_FAILURE

# Enum members read through the class cost a descriptor call each; the
# per-visit and per-lookup paths read these module constants instead.
_A = RRType.A
_NS = RRType.NS
_CNAME = RRType.CNAME
_IN = RRClass.IN

_tuple_new = tuple.__new__
"""Builds a ``NamedTuple`` record from a tuple in one C call, without the
Python ``__new__`` frame the class call adds (one per upstream walk)."""


class CachingServer:
    """An iterative caching resolver with optional resilience schemes."""

    def __init__(
        self,
        root_hints: InfrastructureRecordSet,
        network: "Network",
        clock: Clock,
        config: ResilienceConfig | None = None,
        metrics: ReplayMetrics | None = None,
        gap_observer: GapObserver | None = None,
        seed: int = 0,
        observer: EventBus | None = None,
        validation: bool = False,
    ) -> None:
        self.config = config or ResilienceConfig.vanilla()
        # The clock is a protocol (DESIGN §15): replays pass their
        # SimulationEngine, `repro serve` a WallClock.  The server only
        # arms and cancels timers on it; every entry point takes `now`
        # from its caller.  Both resolve through the simulated Network,
        # and the resolution logic below is identical under either clock.
        self.network = network
        self.clock = clock
        self.metrics = metrics or ReplayMetrics()
        cache_type: type[DnsCache] = DnsCache
        if validation:
            # Shadow every cache operation with the naive oracle model
            # (DESIGN.md §12).  Imported lazily: the validation package
            # depends on this module's sibling `cache`, and an unshadowed
            # server must not pay the import.
            from repro.validation.differential import DifferentialCache

            cache_type = DifferentialCache
        self.cache = cache_type(
            max_effective_ttl=MAX_EFFECTIVE_TTL,
            max_entries=self.config.cache_capacity,
            harden_ranking=self.config.harden_ranking,
        )
        self.observer = observer
        if observer is not None:
            self.cache.attach_observer(observer)
        self.gap_observer = gap_observer
        self._rng = random.Random(seed)

        self._root = root_name()
        self._hints = root_hints
        self._hint_addresses: dict[Name, str] = {}
        for server_name in root_hints.server_names():
            glue = root_hints.glue_for(server_name)
            if glue is None:
                raise ValueError(f"root hint {server_name} lacks glue")
            self._hint_addresses[server_name] = str(glue.records[0].data)

        # Owner names known to be authoritative-server hostnames; their
        # address RRsets count as IRRs for the refresh rule.
        self._known_server_names: set[Name] = set(self._hint_addresses)

        # Zones observed to publish DNSSEC IRRs (drives validation).
        # The root's keys come from the hints and act as trust anchors.
        self._signed_zones: set[Name] = set()
        self._root_signed = root_hints.is_signed

        self.renewal: RenewalManager | None = None
        policy = self.config.make_renewal_policy()
        if policy is not None:
            self.renewal = RenewalManager(
                policy=policy,
                clock=self.clock,
                cache=self.cache,
                refetch=self._renewal_refetch,
                jitter_fraction=RENEWAL_JITTER,
                rng=random.Random(seed + 0x5EED),
                observer=observer,
            )

        # Packed (name, rrtype) keys with a background refetch already
        # queued — the SWR singleflight: concurrent stale hits collapse
        # onto one upstream fetch.
        self._refetch_pending: set[int] = set()

        # Work-limit defenses, counted only when the config sets them.
        # `config.fetch_budget` caps NS-address sub-resolutions per
        # top-level query (`_fetch_spent`, reset as each one starts);
        # `config.nxns_cap` bounds them per referral step
        # (`_nxns_spent`; see `_address_by_resolution`).
        self._fetch_spent = 0
        self._nxns_spent = 0

        # Server-selection state: smoothed RTT per address, hold-down
        # deadlines for unresponsive servers, and (under a RetryPolicy)
        # the consecutive-failure counts driving the hold-down.  All
        # three are keyed by a dense per-server int id (`_addr_ids`)
        # rather than the address string — these maps are probed for
        # every candidate server of every referral step.
        self._addr_ids: dict[str, int] = {}
        self._srtt: dict[int, float] = {}
        self._held_down: dict[int, float] = {}
        self._consecutive_failures: dict[int, int] = {}

        # The root's server set never changes during a replay.
        self._root_ns_info = (root_hints.server_names(), root_hints.ns.ttl)

    # ------------------------------------------------------------------
    # Stub-facing API
    # ------------------------------------------------------------------

    def handle_stub_query(
        self, qname: Name, rrtype: RRType, now: float
    ) -> Resolution:
        """Resolve one stub-resolver query, recording SR metrics.

        The one stub-query path, hit or miss, replay or `repro serve`.
        It probes the cache itself, as :meth:`resolve` does, and only a
        miss enters the shared miss body (:meth:`_resolve_miss`).  The
        outcome is read once and `record_sr_query` gets its five flags
        positionally, so a hit on an idle engine is four Python calls end
        to end: `advance_to`, this method, the cache's `get`,
        `record_sr_query`.
        """
        obs = self.observer
        if obs is not None:
            if obs.quiet:
                obs.count(EventKind.STUB_QUERY, now)
            else:
                obs.emit(EventKind.STUB_QUERY, now,
                         name=str(qname), rrtype=rrtype.name)
        self._fetch_spent = 0
        cached = self.cache.get(qname, rrtype, now)
        if cached is not None:
            outcome = _CACHE_HIT
            resolution = _tuple_new(Resolution, (outcome, cached))
        else:
            resolution = self._resolve_miss(qname, rrtype, now, 0, frozenset())
            outcome = resolution.outcome
        if (
            self.config.dnssec_validation
            and not outcome.failed
            and outcome is not _NXDOMAIN
            and not self._chain_keys_available(qname, now)
        ):
            outcome = _VALIDATION_FAILURE
            resolution = _tuple_new(Resolution, (outcome, None))
        failed = outcome.failed
        self.metrics.record_sr_query(
            now,
            failed,
            outcome is _CACHE_HIT,
            outcome is _NXDOMAIN,
            outcome is _VALIDATION_FAILURE,
            outcome is _STALE_HIT,
        )
        if obs is not None:
            if obs.quiet:
                obs.count(EventKind.STUB_OUTCOME, now)
            else:
                obs.emit(EventKind.STUB_OUTCOME, now,
                         name=str(qname), rrtype=rrtype.name,
                         outcome=outcome.value,
                         failed=failed)
        return resolution

    def handle_attack_query(
        self, qname: Name, rrtype: RRType, now: float
    ) -> Resolution:
        """Resolve one adversary-injected query (the NXNS attack stream).

        Mirrors :meth:`handle_stub_query` but books the work under the
        attack counters instead of the SR statistics: availability
        figures stay legitimate-traffic-only, and the CS-side queries
        each attack query provoked (the amplification) are attributed by
        differencing the demand counter around the resolution.
        """
        metrics = self.metrics
        self._fetch_spent = 0
        before = metrics.cs_demand_queries
        resolution = self.resolve(qname, rrtype, now)
        provoked = metrics.cs_demand_queries - before
        metrics.attack_stub_queries += 1
        metrics.attack_cs_queries += provoked
        if resolution.failed:
            metrics.attack_failures += 1
        if self.observer is not None:
            self.observer.emit(EventKind.ATTACK_NXNS, now,
                               qname=str(qname), cs_queries=provoked)
        return resolution

    def resolve(
        self,
        qname: Name,
        rrtype: RRType,
        now: float,
        depth: int = 0,
        stack: frozenset[Name] = frozenset(),
    ) -> Resolution:
        """Resolve ``(qname, rrtype)``, using the cache and the network.

        The lookup for sub-resolutions (NS addresses), attack queries and
        DNSSEC key fetches.  Does not record SR metrics (so those don't
        pollute end-user statistics); ``handle_stub_query`` does, and
        makes the same first probe itself.  A miss runs
        :meth:`_resolve_miss`.
        """
        cached = self.cache.get(qname, rrtype, now)
        if cached is not None:
            return _tuple_new(Resolution, (_CACHE_HIT, cached))
        return self._resolve_miss(qname, rrtype, now, depth, stack)

    def _resolve_miss(
        self,
        qname: Name,
        rrtype: RRType,
        now: float,
        depth: int,
        stack: frozenset[Name],
    ) -> Resolution:
        """The lookup once the caller's probe of ``(qname, rrtype)`` missed.

        The one miss body, behind both entries' probe.  Each of the
        :data:`MAX_CNAME_CHAIN` steps probes the cache, then tries a
        negative entry, a cached CNAME link, a stale answer and a fetch;
        step 0's probe is the caller's, so every step after it makes its
        own.  Takes the name and type, not a :class:`Question`: a cached
        answer (positive, negative or CNAME step) needs neither the
        object nor its wire size, so the question is built only on the
        branch that is about to ``_fetch``.  A live negative entry
        replays the verdict it was filed with — a cached NODATA answers
        NODATA, never NXDOMAIN (RFC 2308 §2.2).
        """
        fetched = False
        for step in range(MAX_CNAME_CHAIN):
            if step:
                cached = self.cache.get(qname, rrtype, now)
                if cached is not None:
                    return _tuple_new(
                        Resolution,
                        (_ANSWERED if fetched else _CACHE_HIT, cached),
                    )
            negative = self.cache.get_negative(qname, rrtype, now)
            if negative is not None:
                return _tuple_new(Resolution, (
                    _NODATA if negative is NegativeVerdict.NODATA
                    else _NXDOMAIN,
                    None,
                ))
            if rrtype != _CNAME:
                cname = self.cache.get(qname, _CNAME, now)
                if cname is not None:
                    target = cname.records[0].data
                    if not isinstance(target, Name):
                        raise InvariantError(
                            f"cached CNAME rdata {target!r} is not a name"
                        )
                    qname = target
                    continue

            grace = self.config.swr_grace
            if grace is not None and not fetched:
                stale = self.cache.get_stale(
                    qname, rrtype, now, max_stale=grace
                )
                if stale is not None:
                    # Stale-while-revalidate: answer from the lapsed
                    # entry now, refresh it off the critical path.
                    if self._schedule_refetch(qname, rrtype, now):
                        self.metrics.swr_refreshes += 1
                        if self.observer is not None:
                            self.observer.emit(
                                EventKind.CACHE_SWR_REFRESH, now,
                                qname=str(qname),
                                rrtype=rrtype.name,
                            )
                    return _tuple_new(Resolution, (_STALE_HIT, stale))

            question = _tuple_new(Question, (qname, rrtype, _IN))
            verdict = self._fetch(question, now, depth, stack)
            if verdict is _FAILURE and self.config.serve_stale:
                verdict = self._fetch(question, now, depth, stack, stale=True)
                if verdict is _FAILURE:
                    stale = self.cache.get_stale(qname, rrtype, now)
                    if stale is not None:
                        return _tuple_new(Resolution, (_STALE_HIT, stale))
            if verdict is not _ANSWERED:
                return _tuple_new(Resolution, (verdict, None))
            fetched = True
            # ANSWERED: the next step re-reads the cache; the answer may
            # have been a CNAME whose tail still needs chasing.
        return _tuple_new(Resolution, (_FAILURE, None))

    # ------------------------------------------------------------------
    # Iterative fetch
    # ------------------------------------------------------------------

    def _fetch(
        self,
        question: Question,
        now: float,
        depth: int,
        stack: frozenset[Name],
        stale: bool = False,
        renewal: bool = False,
    ) -> ResolutionOutcome:
        """Walk the delegation tree until an authoritative verdict.

        ``renewal`` tags every query attempt as background traffic (the
        SWR refetch path), keeping demand-side failure and latency
        statistics clean.
        """
        if depth > MAX_FETCH_DEPTH:
            return _FAILURE
        failed_zones: set[Name] = set()
        visited: set[Name] = set()
        retried_after_failure: set[Name] = set()
        zone = self._starting_zone(question.name, now, failed_zones, stale)
        for _ in range(MAX_REFERRALS):
            response = self._query_zone(
                zone, question, now, depth, stack,
                renewal=renewal, stale=stale,
            )
            if response is None:
                # Every usable server of this zone failed.  Paper §4: "in
                # the worst case ... the parent zone must be queried to
                # reset the IRR" — climb and retry from above.
                if self.observer is not None:
                    self.observer.emit(
                        EventKind.FETCH_RETRY, now,
                        zone=str(zone), qname=str(question.name),
                        stale=stale,
                    )
                failed_zones.add(zone)
                if zone == self._root:
                    return _FAILURE
                zone = self._starting_zone(
                    zone.parent(), now, failed_zones, stale
                )
                if zone in failed_zones:
                    return _FAILURE
                continue

            self._ingest(response, now)
            if response.is_name_error():
                self.cache.put_negative(
                    question.name, question.rrtype, now,
                    self._negative_ttl(response), NegativeVerdict.NXDOMAIN,
                )
                return _NXDOMAIN
            if response.answer:
                return _ANSWERED
            if response.is_referral():
                child = response.referral_zone()
                if child is None:
                    raise InvariantError(
                        "referral response carries no child zone"
                    )
                no_progress = (
                    child == zone
                    or child in visited
                    or not question.name.is_subdomain_of(child)
                )
                if no_progress:
                    return _FAILURE
                if child in failed_zones:
                    # The cached (possibly obsolete) IRRs for this child
                    # all failed, but the parent just handed us a fresh
                    # delegation.  Ranking would keep the stale
                    # higher-trust copy, so drop it and take the parent's
                    # data: this "resets the IRR" exactly as §4 says.
                    # One retry per child guards against loops when the
                    # fresh copy is just as dead (e.g. under attack).
                    if child in retried_after_failure:
                        return _FAILURE
                    retried_after_failure.add(child)
                    self._evict_zone_irrs(child)
                    self._ingest(response, now)
                    failed_zones.discard(child)
                visited.add(child)
                zone = child
                continue
            # Authoritative empty answer.
            self.cache.put_negative(
                question.name, question.rrtype, now,
                self._negative_ttl(response), NegativeVerdict.NODATA,
            )
            return _NODATA
        return _FAILURE

    def _negative_ttl(self, response: Message) -> float:
        """RFC 2308: negative TTL = min(SOA TTL, SOA minimum).

        Falls back to :data:`NEGATIVE_TTL` when the authority carries no
        SOA (legacy zones).
        """
        for rrset in response.authority:
            if rrset.rrtype != RRType.SOA:
                continue
            rdata = str(rrset.records[0].data)
            try:
                minimum = float(rdata.split()[-1])
            except ValueError:
                break
            return min(rrset.ttl, minimum)
        return NEGATIVE_TTL

    def _starting_zone(
        self,
        qname: Name,
        now: float,
        exclude: set[Name],
        stale: bool,
    ) -> Name:
        """Deepest usable cached zone for ``qname`` (root as fallback)."""
        return self.cache.best_zone_for(
            qname, now, exclude=exclude, allow_stale=stale
        ) or self._root

    def _query_zone(
        self,
        zone: Name,
        question: Question,
        now: float,
        depth: int,
        stack: frozenset[Name],
        renewal: bool = False,
        stale: bool = False,
    ) -> Message | None:
        """Try the zone's servers in (rotated) order; None when all fail.

        Every renewal refetch and every referral step comes through here,
        so the per-visit work is written out inline: the NS entry is read
        once, the rotation pivot is drawn straight from ``getrandbits``,
        and each server's address comes from the hints or the live cache
        before :meth:`_address_by_resolution` is called for the rest.
        """
        if zone is self._root:
            server_names, published_ttl = self._root_ns_info
        else:
            entry = self.cache.entry(zone, _NS)
            if entry is None or (entry.expires_at <= now and not stale):
                return None
            # NS rdata is always a Name (`ResourceRecord` checks it), so
            # the set's data values are its server names, in order.
            server_names = entry.rrset.data_values()  # type: ignore[assignment]
            published_ttl = entry.published_ttl
        count = len(server_names)
        if count > 1:
            # `Random.randrange(count)`, draw for draw: the same
            # getrandbits(count.bit_length()) calls with the same
            # rejections, without its three Python frames.
            getrandbits = self._rng.getrandbits
            bits = count.bit_length()
            pivot = getrandbits(bits)
            while pivot >= count:
                pivot = getrandbits(bits)
            order = server_names[pivot:] + server_names[:pivot]
        else:
            order = server_names
        hints = self._hint_addresses
        cache_get = self.cache.get
        addr_ids = self._addr_ids
        held_down_until = self._held_down
        candidates: list[tuple[str, int]] = []
        # The NXNS cap is scoped per referral step: each _query_zone
        # visit gets its own sub-resolution allowance.  Save/restore
        # because a sub-resolution can re-enter this method (resolving
        # an out-of-bailiwick server name walks the tree again).
        saved_nxns_spent = self._nxns_spent
        self._nxns_spent = 0
        # Every server name gets its address before the first one is
        # tried: sub-resolutions, LRU touches and cache events follow
        # this order.
        for server_name in order:
            address = hints.get(server_name)
            if address is None:
                cached = cache_get(server_name, _A, now)
                if cached is not None:
                    address = str(cached.records[0].data)
                else:
                    address = self._address_by_resolution(
                        server_name, zone, now, depth, stack, stale
                    )
                    if address is None:
                        continue
            aid = addr_ids.get(address)
            if aid is None:
                aid = addr_ids[address] = len(addr_ids)
            if held_down_until and held_down_until.get(aid, 0.0) > now:
                continue  # dead-server hold-down: don't even try
            candidates.append((address, aid))
        self._nxns_spent = saved_nxns_spent
        if self.config.prefer_fast_servers and len(candidates) > 1:
            # Untried servers sort first (give them a chance), then by
            # smoothed RTT — BIND-flavoured server selection.
            candidates.sort(
                key=lambda entry: self._srtt.get(entry[1], -1.0)
            )
        obs = self.observer
        retry = self.config.retry_policy
        max_tries = retry.max_tries if retry is not None else 1
        send = self.network.query
        record_exchange = self.metrics.record_exchange
        question_size = question.wire_size()
        srtt = self._srtt
        for address, aid in candidates[:MAX_SERVERS_PER_ZONE]:
            for attempt in range(max_tries):
                if obs is not None:
                    if attempt == 0:
                        obs.emit(EventKind.QUERY_ISSUED, now,
                                 zone=str(zone), server=address,
                                 qname=str(question.name), renewal=renewal)
                    else:
                        obs.emit(EventKind.QUERY_RETRY, now,
                                 zone=str(zone), server=address,
                                 attempt=attempt, renewal=renewal)
                message, latency, dropped_by, timed_out = send(
                    address, question, now
                )
                if message is None and timed_out and retry is not None:
                    # The timeout actually paid follows the retransmit
                    # schedule: try n waits timeout * RETRY_BACKOFF**n.
                    latency = retry.try_cost(self.network.query_timeout, attempt)
                # Renewal refetches run in the background; only demand
                # traffic sits on a lookup's critical path (latency is
                # ignored for renewal inside record_exchange).
                record_exchange(
                    now,
                    message is None,
                    renewal,
                    question_size,
                    message.wire_size() if message is not None else 0,
                    latency,
                )
                if message is not None or retry is not None:
                    # Answers feed the smoothed RTT; under a RetryPolicy
                    # so do the timeouts paid, so lossy or unreachable
                    # servers lose their `prefer_fast_servers` preference.
                    previous = srtt.get(aid)
                    srtt[aid] = (
                        latency if previous is None
                        else 0.7 * previous + 0.3 * latency
                    )
                if message is not None:
                    if obs is not None:
                        obs.emit(EventKind.QUERY_ANSWERED, now,
                                 zone=str(zone), server=address,
                                 latency=latency, renewal=renewal)
                    if retry is not None:
                        # Only a RetryPolicy fills these two maps.
                        held_down_until.pop(aid, None)
                        self._consecutive_failures.pop(aid, None)
                    if not renewal:
                        self._note_zone_use(zone, published_ttl, now)
                    return message
                if obs is not None:
                    obs.emit(EventKind.QUERY_FAILED, now,
                             zone=str(zone), server=address,
                             latency=latency, renewal=renewal)
                    if dropped_by is not None:
                        obs.emit(EventKind.FAULT_DROP, now,
                                 server=address, reason=dropped_by,
                                 renewal=renewal)
                held_down = retry is not None and self._note_server_failure(
                    retry, address, aid, now
                )
                if held_down or not timed_out:
                    # Sidelined, or a fast negative (lame delegation):
                    # retransmitting to this server cannot help.
                    break
        return None

    def _note_server_failure(
        self, retry: RetryPolicy, address: str, aid: int, now: float
    ) -> bool:
        """Hold-down bookkeeping for one failed query attempt.

        Returns whether the address was just placed in hold-down: after
        ``retry.holddown_failures`` consecutive failures.  ``aid`` is the
        address's dense id (`_addr_ids`); ``address`` is only for event
        payloads.
        """
        count = self._consecutive_failures.get(aid, 0) + 1
        self._consecutive_failures[aid] = count
        if retry.holddown is not None and count >= retry.holddown_failures:
            until = now + retry.holddown
            self._held_down[aid] = until
            # Restart the count so the server gets a clean slate when
            # the hold-down expires (one failure then re-arms it).
            self._consecutive_failures.pop(aid, None)
            if self.observer is not None:
                self.observer.emit(EventKind.SERVER_HOLDDOWN, now,
                                   server=address, until=until,
                                   failures=count)
            return True
        return False

    def _address_by_resolution(
        self,
        server_name: Name,
        zone: Name,
        now: float,
        depth: int,
        stack: frozenset[Name],
        stale: bool,
    ) -> str | None:
        """An address for a server neither the hints nor the live cache
        hold: a lapsed copy when serving stale, else a sub-resolution."""
        if stale:
            stale_set = self.cache.get_stale(server_name, _A, now)
            if stale_set is not None:
                return str(stale_set.records[0].data)
        if server_name in stack or depth >= MAX_FETCH_DEPTH:
            return None
        if server_name.is_subdomain_of(zone):
            # In-bailiwick name with no glue in cache: resolving it would
            # need the very zone we are trying to reach — a glue-less
            # cycle a real resolver also cannot break.
            return None
        # Work-limit defenses.  From here on an uncached server name
        # costs a full sub-resolution — exactly what NXNS amplification
        # farms.  The per-query fetch budget and the per-referral-step
        # NXNS cap both refuse gracefully (the candidate is skipped;
        # with no candidates left the lookup climbs and eventually
        # SERVFAILs) rather than recursing without bound.
        cap = self.config.nxns_cap
        if cap is not None and self._nxns_spent >= cap:
            self.metrics.nxns_capped += 1
            if self.observer is not None:
                self.observer.emit(EventKind.DEFENSE_BUDGET_EXHAUSTED, now,
                                   mechanism="nxns-cap",
                                   server=str(server_name))
            return None
        budget = self.config.fetch_budget
        if budget is not None:
            if self._fetch_spent >= budget:
                self.metrics.budget_exhaustions += 1
                if self.observer is not None:
                    self.observer.emit(EventKind.DEFENSE_BUDGET_EXHAUSTED,
                                       now, mechanism="fetch-budget",
                                       server=str(server_name))
                return None
            self._fetch_spent += 1
        if cap is not None:
            self._nxns_spent += 1
        sub = self.resolve(
            server_name, _A, now, depth + 1, stack | {server_name}
        )
        if sub.failed or sub.answer is None:
            return None
        # The answer of an A lookup is its A RRset, and an RRset is never
        # empty nor mixed in type.
        return str(sub.answer.records[0].data)

    # ------------------------------------------------------------------
    # Response ingestion (caching + refresh + renewal + gap hooks)
    # ------------------------------------------------------------------

    def _ingest(self, message: Message, now: float) -> None:
        """File every RRset of a response into the cache, ranked.

        NS targets are registered first so the additional section's glue
        is already recognisable as infrastructure data.  The section
        walk, ranks and static infrastructure flags are precomputed (and
        memoized) by the message; only the known-server-name check and
        the puts themselves run per ingest.
        """
        ns_targets, ranked = message.ingest_plan()
        known = self._known_server_names
        if ns_targets:
            known.update(ns_targets)
        ttl_refresh = self.config.ttl_refresh
        put = self.cache.put
        gap_observer = self.gap_observer
        renewal = self.renewal
        forged = message.forged
        for rrset, rank, is_ns, static_irr, is_addr, dnssec_key in ranked:
            refresh = ttl_refresh and (
                static_irr or (is_addr and rrset.name in known)
            )
            if forged:
                # Adversary-injected response: the put is identical
                # except for the ground-truth taint marker, so RFC 2181
                # ranking (not fiat) decides whether the poison sticks.
                result = put(rrset, rank, now, refresh, True)
                if result.stored and self.observer is not None:
                    self.observer.emit(EventKind.CACHE_POISONED, now,
                                       name=str(rrset.name),
                                       rrtype=rrset.rrtype.name,
                                       rank=rank.name)
            else:
                result = put(rrset, rank, now, refresh)
            if dnssec_key:
                self._signed_zones.add(rrset.name)
            if not is_ns:
                continue
            zone = rrset.name
            if (
                result.replaced_expired
                and gap_observer is not None
                and result.previous_expiry is not None
                and result.previous_published_ttl is not None
            ):
                gap = now - result.previous_expiry
                gap_observer(zone, gap, result.previous_published_ttl)
            if result.stored and result.expires_at is not None:
                if renewal is not None:
                    renewal.note_irrs_cached(zone, result.expires_at, now)

    def _chain_keys_available(self, qname: Name, now: float) -> bool:
        """Whether every signed zone on ``qname``'s chain has a live key.

        Missing keys are refetched on demand (an extra lookup the stub
        pays for); the root's keys are the configured trust anchor and
        never need fetching.  This models the §6 DNSSEC extension: a
        validating resolver is only as available as its key chain.
        """
        for ancestor in qname.ancestors():
            if ancestor.is_root:
                return True
            if ancestor not in self._signed_zones:
                continue
            if self.cache.get(ancestor, RRType.DNSKEY, now) is not None:
                continue
            refetch = self.resolve(ancestor, RRType.DNSKEY, now, depth=1)
            if refetch.failed or refetch.answer is None:
                return False
            if self.cache.get(ancestor, RRType.DNSKEY, now) is None:
                return False
        return True

    def _evict_zone_irrs(self, zone: Name) -> None:
        """Evict a zone's cached NS set and its servers' addresses, and
        stop renewing the zone."""
        entry = self.cache.entry(zone, RRType.NS)
        if entry is not None:
            for record in entry.rrset:
                if isinstance(record.data, Name):
                    self.cache.remove(record.data, RRType.A)
            self.cache.remove(zone, RRType.NS)
        if self.renewal is not None:
            self.renewal.forget_zone(zone)

    def _note_zone_use(self, zone: Name, published_ttl: float, now: float) -> None:
        contacts = self.metrics.zone_contacts
        contacts[zone] = contacts.get(zone, 0) + 1
        if self.renewal is not None and zone != self._root:
            self.renewal.note_zone_use(zone, published_ttl, now)

    # ------------------------------------------------------------------
    # Renewal refetch / SWR background refresh / invalidation channel
    # ------------------------------------------------------------------

    def _schedule_refetch(self, qname: Name, rrtype: RRType, now: float) -> bool:
        """Queue one background, renewal-tagged refetch of (qname, rrtype).

        Deduplicated on the packed cache key: while a refetch is
        pending, further stale hits (or invalidations) for the same key
        are answered without queueing another upstream walk — the
        singleflight collapse.  Returns whether a refetch was newly
        scheduled.
        """
        key = (qname.iid << RRTYPE_BITS) | rrtype
        if key in self._refetch_pending:
            return False
        self._refetch_pending.add(key)
        question = Question(qname, rrtype)

        def refetch(at: float) -> None:
            try:
                # Background refreshes are their own work unit.
                self._fetch_spent = 0
                self._fetch(
                    question, at, depth=0, stack=frozenset(), renewal=True
                )
            finally:
                self._refetch_pending.discard(key)

        self.clock.schedule(now, refetch)
        return True

    def handle_invalidation(self, zone: Name, now: float) -> None:
        """Update-channel invalidation for a migrated zone (`decoupled`).

        No-op unless the config arms the channel, or when nothing about
        the zone is cached (clients hold no stranded state).  Otherwise
        evicts the zone's NS set and the glue of the servers it named —
        the same eviction shape as the §4 parent-side IRR reset — and
        queues one deduplicated background re-learn through the parent,
        so long effective TTLs never pin lookups to dead servers.
        """
        if (
            not self.config.update_channel
            or self.cache.entry(zone, RRType.NS) is None
        ):
            return
        self._evict_zone_irrs(zone)
        self.metrics.invalidations += 1
        if self.observer is not None:
            self.observer.emit(EventKind.CACHE_INVALIDATED, now,
                               zone=str(zone))
        self._schedule_refetch(zone, RRType.NS, now)

    def _renewal_refetch(self, zone: Name, now: float) -> bool:
        """Refetch a zone's IRRs from the zone's own servers.

        Fired by the renewal manager just before expiry; returns whether
        the refetch produced an authoritative NS answer (which, once
        ingested, restarts the TTL countdown).
        """
        question = _tuple_new(Question, (zone, _NS, _IN))
        # Renewal refetches are their own top-level work unit.
        self._fetch_spent = 0
        response = self._query_zone(
            zone, question, now, depth=0, stack=frozenset(), renewal=True
        )
        if response is None or not response.answer:
            return False
        self._ingest(response, now)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def srtt_of(self, address: str) -> float | None:
        """The smoothed RTT estimate for a server address, if any.

        The internal map is keyed by dense address ids; this decodes for
        tests and diagnostics.
        """
        aid = self._addr_ids.get(address)
        return None if aid is None else self._srtt.get(aid)

    def cached_zone_count(self, now: float) -> int:
        """Zones with live cached IRRs (Figure 12 series)."""
        return self.cache.live_zone_count(now)

    def cached_record_count(self, now: float) -> int:
        """Live cached records (Figure 12 series)."""
        return self.cache.live_record_count(now)

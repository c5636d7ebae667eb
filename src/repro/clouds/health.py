"""Per-cloud health tracking: suspect lists, probe windows and straggler flags.

SCFS assumes that individual clouds crash, gray-fail and lag.  Without client
state about *which* provider is misbehaving, every quorum call re-probes every
cloud: a downed provider costs a failed round trip — or, worse, a full
per-request timeout — on every single operation, forever.  This module makes
provider health first-class client state, in the spirit of accrual failure
detectors and the suspect lists of generalized Byzantine quorum systems.

Suspicion model
---------------
A :class:`CloudHealthTracker` ingests the
:class:`~repro.clouds.dispatch.RequestTrace` of every request the dispatch
engine resolves (DepSky feeds it all of its quorum calls) and keeps one
:class:`CloudHealth` record per provider:

* **suspect** — ``threshold`` *consecutive* failures or timeouts move a cloud
  to :attr:`CloudStatus.SUSPECTED`.  Only *provider faults* count:
  authoritative answers (not-found, access-denied — ``trace.benign``) prove
  liveness and clear the failure streak, so reading absent keys or polling a
  not-yet-visible version never suspects a healthy provider.  Suspected
  clouds are *demoted* out of the primary dispatch stage by
  :meth:`CloudHealthTracker.plan`: the engine promotes fallback clouds in
  their place, so quorum calls stop paying the dead provider's timeout tax.
  Demotion is conservative — when too few unsuspected clouds remain to
  satisfy the quorum, the plan reverts to the original stages rather than
  fail the call outright, and *mutating* requests (PUT/DELETE/ACL) are never
  skipped: they are dispatched in the background instead, so replication
  never silently shrinks on the say-so of a suspicion.
* **probe** — a suspected cloud is not retried on the hot path.  Instead,
  once its *probe window* elapses, its request is dispatched as a background
  probe: it runs concurrently with stage 0 but never gates the call's charged
  latency.  Each failed probe widens the window exponentially
  (``probe_backoff * probe_backoff_factor^i``, capped at
  ``probe_backoff_max``), so a long outage converges to a trickle of probes.
* **recover** — any successful response (probe or regular request) clears the
  suspicion immediately: the cloud rejoins the primary stage on the next call.
* **degraded** — an exponentially weighted moving average of per-request
  latency is kept per cloud.  A cloud whose EWMA exceeds
  ``degraded_factor`` times the median of its peers is flagged
  :attr:`CloudStatus.DEGRADED` (a gray failure: it answers, slowly).  When a
  degraded cloud sits in a dispatched stage and the policy sets no explicit
  ``hedge_delay``, the tracker supplies an automatic one
  (``hedge_multiple`` times the healthy median EWMA) so backup requests are
  hedged proactively instead of waiting out the straggler.

Knobs
-----
All knobs live in :class:`SuspicionPolicy`; the config layer
(:class:`repro.core.config.DispatchPolicyConfig`) exposes them per agent so
benchmarks and Table 2 variants enable health tracking from configuration
alone.  ``threshold`` trades detection speed against false suspicion under
jitter; ``probe_backoff``/``probe_backoff_factor``/``probe_backoff_max``
bound how stale a suspicion can get (and therefore the worst-case recovery
lag after an outage ends); ``degraded_factor`` and ``hedge_multiple`` govern
the straggler path.
"""

from __future__ import annotations

import enum
import logging
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.clouds.quorums import as_quorum, minimal_quorums

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.clouds.dispatch import QuorumRequest, RequestTrace

logger = logging.getLogger(__name__)


class CloudStatus(enum.Enum):
    """Externally visible health classification of one provider."""

    #: No evidence of misbehaviour.
    HEALTHY = "healthy"
    #: Answering, but much slower than its peers (gray failure / straggler).
    DEGRADED = "degraded"
    #: Consecutive failures/timeouts crossed the threshold; demoted from the
    #: primary stage until a background probe succeeds.
    SUSPECTED = "suspected"


@dataclass(frozen=True)
class SuspicionPolicy:
    """Knobs of the suspicion model (see the module docstring)."""

    #: Consecutive failures or timeouts that turn a cloud SUSPECTED.
    threshold: int = 3
    #: First probe window in simulated seconds after a suspicion.
    probe_backoff: float = 10.0
    #: Multiplier applied to the probe window after each failed probe.
    probe_backoff_factor: float = 2.0
    #: Upper bound of the probe window (keeps recovery lag bounded).
    probe_backoff_max: float = 300.0
    #: A cloud whose latency EWMA exceeds this multiple of the peer median is
    #: flagged DEGRADED.
    degraded_factor: float = 3.0
    #: Weight of the newest sample in the latency EWMA.
    ewma_alpha: float = 0.3
    #: Samples required before the EWMA participates in degradation checks.
    min_samples: int = 4
    #: Automatic hedge delay for stages containing a DEGRADED cloud, as a
    #: multiple of the healthy peers' median EWMA (used only when the dispatch
    #: policy sets no explicit ``hedge_delay``).
    hedge_multiple: float = 2.0

    def validate(self) -> None:
        """Raise :class:`ValueError` on nonsensical knob combinations."""
        if self.threshold < 1:
            raise ValueError("the suspicion threshold must be at least 1")
        if self.probe_backoff <= 0:
            raise ValueError("the probe backoff must be positive")
        if self.probe_backoff_factor < 1.0:
            raise ValueError("the probe backoff factor must be >= 1")
        if self.probe_backoff_max < self.probe_backoff:
            raise ValueError("the probe backoff cap must be >= the initial backoff")
        if self.degraded_factor <= 1.0:
            raise ValueError("the degradation factor must exceed 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("the EWMA weight must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.hedge_multiple <= 0:
            raise ValueError("the hedge multiple must be positive")


@dataclass
class CloudHealth:
    """Mutable health record of one provider."""

    cloud: str
    status: CloudStatus = CloudStatus.HEALTHY
    consecutive_failures: int = 0
    #: Simulated time the current suspicion started (None when not suspected).
    suspected_at: float | None = None
    #: Next simulated time a background probe may be dispatched.
    probe_at: float | None = None
    #: Current probe window width (grows exponentially while probes fail).
    probe_interval: float = 0.0
    #: Latency EWMA over successful responses (None before the first sample).
    ewma_latency: float | None = None
    samples: int = 0
    #: Lifetime counters of this cloud (suspicions entered / recoveries).
    suspicions: int = 0
    recoveries: int = 0


@dataclass
class HealthStats:
    """Aggregate counters of one tracker, for reports and benchmarks."""

    suspicions: int = 0
    recoveries: int = 0
    probes: int = 0
    #: Requests demoted out of their planned stage because of a suspicion.
    demoted_requests: int = 0
    #: Demoted requests that were skipped entirely (probe window not yet due).
    skipped_requests: int = 0
    #: Plans reverted to their original stages because demoting the suspects
    #: would have left the quorum unsatisfiable (the conservative path).
    conservative_reverts: int = 0
    suspected_now: tuple[str, ...] = ()
    degraded_now: tuple[str, ...] = ()

    def merge(self, other: "HealthStats") -> "HealthStats":
        """Element-wise sum of two snapshots (aggregation across agents)."""
        return HealthStats(
            suspicions=self.suspicions + other.suspicions,
            recoveries=self.recoveries + other.recoveries,
            probes=self.probes + other.probes,
            demoted_requests=self.demoted_requests + other.demoted_requests,
            skipped_requests=self.skipped_requests + other.skipped_requests,
            conservative_reverts=self.conservative_reverts + other.conservative_reverts,
            suspected_now=tuple(dict.fromkeys(self.suspected_now + other.suspected_now)),
            degraded_now=tuple(dict.fromkeys(self.degraded_now + other.degraded_now)),
        )


@dataclass
class PlannedStages:
    """Result of health-aware request planning for one quorum call."""

    stages: list[list["QuorumRequest"]]
    #: Requests of suspected clouds whose probe window is due: dispatched as
    #: background probes (concurrent with stage 0, never gating the call).
    probes: list["QuorumRequest"] = field(default_factory=list)
    #: Clouds demoted out of their planned stage this call.
    demoted: tuple[str, ...] = ()
    #: True when the plan fell back to the original stages because demotion
    #: would have made the quorum unsatisfiable (conservative revert).
    reverted: bool = False


class CloudHealthTracker:
    """Per-client tracker turning request traces into dispatch planning."""

    def __init__(self, policy: SuspicionPolicy | None = None):
        self.policy = policy or SuspicionPolicy()
        self.policy.validate()
        self._clouds: dict[str, CloudHealth] = {}
        self.suspicions = 0
        self.recoveries = 0
        self.probes = 0
        self.demoted_requests = 0
        self.skipped_requests = 0
        self.conservative_reverts = 0
        #: Optional observer of suspect-list transitions, invoked as
        #: ``on_transition(cloud, state, now)`` with state ``"suspected"`` or
        #: ``"recovered"`` (the scenario engine records these in its trace).
        self.on_transition = None

    # ------------------------------------------------------------- inspection

    def health(self, cloud: str) -> CloudHealth:
        """The (lazily created) health record of ``cloud``."""
        record = self._clouds.get(cloud)
        if record is None:
            record = self._clouds[cloud] = CloudHealth(cloud=cloud)
        return record

    def is_suspected(self, cloud: str) -> bool:
        """True while ``cloud`` sits on the suspect list."""
        record = self._clouds.get(cloud)
        return record is not None and record.status is CloudStatus.SUSPECTED

    def probe_due(self, cloud: str, now: float) -> bool:
        """True when a suspected cloud's probe window has elapsed."""
        record = self._clouds.get(cloud)
        return (
            record is not None
            and record.status is CloudStatus.SUSPECTED
            and record.probe_at is not None
            and now >= record.probe_at
        )

    def _peer_median(self, cloud: str) -> float | None:
        peers = [
            r.ewma_latency for r in self._clouds.values()
            if r.cloud != cloud
            and r.status is not CloudStatus.SUSPECTED
            and r.ewma_latency is not None
            and r.samples >= self.policy.min_samples
        ]
        return statistics.median(peers) if peers else None

    def is_degraded(self, cloud: str) -> bool:
        """True when ``cloud`` answers but lags far behind its peers."""
        record = self._clouds.get(cloud)
        if (
            record is None
            or record.status is CloudStatus.SUSPECTED
            or record.ewma_latency is None
            or record.samples < self.policy.min_samples
        ):
            return False
        median = self._peer_median(cloud)
        return median is not None and record.ewma_latency > self.policy.degraded_factor * median

    def status(self, cloud: str) -> CloudStatus:
        """Current classification of ``cloud`` (degradation checked lazily)."""
        record = self._clouds.get(cloud)
        if record is None:
            return CloudStatus.HEALTHY
        if record.status is CloudStatus.SUSPECTED:
            return CloudStatus.SUSPECTED
        return CloudStatus.DEGRADED if self.is_degraded(cloud) else CloudStatus.HEALTHY

    def auto_hedge_delay(self, clouds: Sequence[str]) -> float | None:
        """Hedge delay for a stage containing a DEGRADED cloud, else ``None``.

        Derived from the healthy peers' median EWMA so the hedge fires shortly
        after a healthy response *should* have arrived.
        """
        degraded = [c for c in clouds if self.is_degraded(c)]
        if not degraded:
            return None
        median = self._peer_median(degraded[0])
        if median is None or median <= 0:
            return None
        return self.policy.hedge_multiple * median

    # --------------------------------------------------------------- planning

    def plan(self, stages: Sequence[Sequence["QuorumRequest"]], required,
             now: float) -> PlannedStages:
        """Re-plan a call's stages around the current suspect list.

        ``required`` is a response count or any quorum predicate from
        :mod:`repro.clouds.quorums`.  Suspected clouds are removed from every
        stage; fallback requests are promoted forward to refill earlier stages
        (preserving the original stage sizes), so the primary round keeps
        enough healthy clouds to satisfy the quorum without waiting for a
        fallback dispatch.  Suspected clouds whose probe window is due come
        back as background probes.  When the unsuspected requests cannot
        satisfy the quorum predicate, the plan *loudly* reverts to the
        original stages (suspicion must never make a call unsatisfiable that
        would otherwise be tried): the revert is logged, counted in
        :attr:`HealthStats.conservative_reverts` and flagged on the returned
        :class:`PlannedStages`.
        """
        quorum = as_quorum(required)
        suspected = [
            request
            for stage in stages
            for request in stage
            if self.is_suspected(request.cloud)
        ]
        if not suspected:
            return PlannedStages(stages=[list(stage) for stage in stages])
        remaining = [
            request
            for stage in stages
            for request in stage
            if not self.is_suspected(request.cloud)
        ]
        if not quorum.satisfied_by([request.cloud for request in remaining]):
            # Too many suspects: demotion would make the quorum unreachable.
            self.conservative_reverts += 1
            logger.warning(
                "health plan reverted: demoting suspected clouds %s would "
                "leave the quorum unsatisfiable (%d unsuspected requests "
                "remain); dispatching the original stages instead",
                sorted({request.cloud for request in suspected}), len(remaining))
            return PlannedStages(stages=[list(stage) for stage in stages],
                                 reverted=True)

        probes: list[QuorumRequest] = []
        demoted: list[str] = []
        for request in suspected:
            demoted.append(request.cloud)
            if request.mutating or self.probe_due(request.cloud, now):
                # Mutating requests (PUT/DELETE/ACL) are never skipped:
                # replication must not silently shrink just because a provider
                # is suspected — the attempt runs in the background, storing
                # the copy whenever the provider actually permits, while the
                # call's charged latency stays free of the suspect.  Read
                # requests come back only when the probe window is due.
                probes.append(request)
                self.probes += 1
            else:
                self.skipped_requests += 1
        self.demoted_requests += len(demoted)

        planned: list[list[QuorumRequest]] = []
        queue = list(remaining)
        for stage in stages:
            if not queue:
                break
            take, queue = queue[:len(stage)], queue[len(stage):]
            planned.append(take)
        if queue:  # pragma: no cover - sizes always cover the queue
            planned.append(queue)
        return PlannedStages(stages=planned, probes=probes, demoted=tuple(demoted))

    # -------------------------------------------------------------- ingestion

    def record_trace(self, trace: "RequestTrace", base_time: float) -> None:
        """Ingest one resolved request of a quorum call.

        ``base_time`` is the absolute simulated time at which the call started
        (trace timestamps are call-relative).  A *benign* failure (not-found,
        access-denied) is an authoritative answer: it proves the provider is
        alive, so it counts as a contact success for health purposes even
        though it occupied no quorum slot — otherwise reading absent keys (or
        polling a not-yet-visible version under eventual consistency) would
        put perfectly healthy clouds on the suspect list.
        """
        latency = max(0.0, trace.resolved_at - trace.dispatched_at)
        self.observe(trace.cloud, succeeded=trace.succeeded or trace.benign,
                     latency=latency, now=base_time + trace.resolved_at)

    def observe(self, cloud: str, succeeded: bool, latency: float, now: float) -> None:
        """Ingest one request outcome (used directly by single-cloud backends)."""
        record = self.health(cloud)
        if succeeded:
            record.samples += 1
            if record.ewma_latency is None:
                record.ewma_latency = latency
            else:
                alpha = self.policy.ewma_alpha
                record.ewma_latency = alpha * latency + (1.0 - alpha) * record.ewma_latency
            record.consecutive_failures = 0
            if record.status is CloudStatus.SUSPECTED:
                record.status = CloudStatus.HEALTHY
                record.suspected_at = None
                record.probe_at = None
                record.probe_interval = 0.0
                record.recoveries += 1
                self.recoveries += 1
                if self.on_transition is not None:
                    self.on_transition(cloud, "recovered", now)
            return
        record.consecutive_failures += 1
        if record.status is CloudStatus.SUSPECTED:
            # A probe (or a reverted-plan request) failed: widen the window.
            record.probe_interval = min(
                record.probe_interval * self.policy.probe_backoff_factor,
                self.policy.probe_backoff_max,
            )
            record.probe_at = now + record.probe_interval
        elif record.consecutive_failures >= self.policy.threshold:
            record.status = CloudStatus.SUSPECTED
            record.suspected_at = now
            record.probe_interval = self.policy.probe_backoff
            record.probe_at = now + record.probe_interval
            record.suspicions += 1
            self.suspicions += 1
            if self.on_transition is not None:
                self.on_transition(cloud, "suspected", now)

    # ---------------------------------------------------------------- reports

    def suspected_clouds(self) -> tuple[str, ...]:
        """Names of the clouds currently on the suspect list."""
        return tuple(
            r.cloud for r in self._clouds.values() if r.status is CloudStatus.SUSPECTED
        )

    def degraded_clouds(self) -> tuple[str, ...]:
        """Names of the clouds currently flagged as stragglers."""
        return tuple(r.cloud for r in self._clouds.values() if self.is_degraded(r.cloud))

    def snapshot(self) -> HealthStats:
        """Aggregate counters plus the current suspect/straggler lists."""
        return HealthStats(
            suspicions=self.suspicions,
            recoveries=self.recoveries,
            probes=self.probes,
            demoted_requests=self.demoted_requests,
            skipped_requests=self.skipped_requests,
            conservative_reverts=self.conservative_reverts,
            suspected_now=self.suspected_clouds(),
            degraded_now=self.degraded_clouds(),
        )


@dataclass(frozen=True)
class QuorumPlan:
    """One planned quorum: the chosen primary stage and its expected economics."""

    #: Clouds of the cheapest feasible quorum, in candidate order (stage 0).
    primary: tuple[str, ...]
    #: Remaining candidates, dispatched only as a fallback stage.
    fallback: tuple[str, ...]
    #: Expected completion latency of the primary stage (max member estimate).
    expected_latency: float
    #: Expected request cost of dispatching the primary stage.
    expected_cost: float
    #: True when suspicion demotion would have made the quorum unsatisfiable
    #: and the planner fell back to the full candidate pool.
    reverted: bool = False


class QuorumPlanner:
    """Ranks candidate quorums by expected cost × latency.

    The planner turns quorum *selection* into an optimization problem: given
    per-cloud estimators for expected request latency (typically the health
    tracker's EWMA blended with the provider profile) and request cost
    (derived from :class:`~repro.clouds.pricing.StoragePricing` via each
    provider's :class:`~repro.clouds.accounting.CostTracker`), it enumerates
    the *minimal* satisfying quorums of the candidate pool and picks the one
    minimizing ``cost × latency`` — dispatching a minimal quorum as stage 0
    and everything else as fallback.  Suspected clouds are demoted out of the
    pool first; when that leaves the predicate unsatisfiable the planner
    reverts loudly to the full pool (never trading liveness for economy).
    """

    #: Above this pool size exact enumeration gives way to a greedy build.
    max_enumeration: int = 12

    def __init__(self, latency_of: Callable[[str, str, int], float],
                 cost_of: Callable[[str, str, int], float],
                 tracker: "CloudHealthTracker | None" = None):
        self.latency_of = latency_of
        self.cost_of = cost_of
        self.tracker = tracker
        self.plans = 0
        self.reverts = 0

    def plan(self, candidates: Sequence[str], required, kind: str,
             payload: int) -> QuorumPlan:
        """Pick the cheapest feasible quorum among ``candidates``.

        ``required`` is a response count or quorum predicate; ``kind`` and
        ``payload`` parameterize the per-cloud latency/cost estimators
        (``"object_get"`` with the expected transfer size, etc.).
        """
        quorum = as_quorum(required)
        names = list(candidates)
        pool = [cloud for cloud in names
                if self.tracker is None or not self.tracker.is_suspected(cloud)]
        reverted = False
        if not quorum.satisfied_by(pool):
            self.reverts += 1
            reverted = True
            demoted = sorted(set(names) - set(pool))
            if demoted:
                logger.warning(
                    "quorum planner reverted: demoting suspected clouds %s "
                    "leaves no feasible quorum; planning over the full pool",
                    demoted)
            pool = names
        self.plans += 1
        latency = {cloud: self.latency_of(cloud, kind, payload) for cloud in pool}
        cost = {cloud: self.cost_of(cloud, kind, payload) for cloud in pool}

        best: tuple | None = None
        if len(pool) <= self.max_enumeration:
            for members in minimal_quorums(pool, quorum):
                stage_latency = max(latency[cloud] for cloud in members)
                stage_cost = sum(cost[cloud] for cloud in members)
                score = (stage_cost * stage_latency, stage_latency, members)
                if best is None or score < best[0]:
                    best = (score, members, stage_latency, stage_cost)
        else:
            # Greedy fallback for large pools: add clouds cheapest-first until
            # the predicate holds (deterministic, near-optimal for counts).
            ranked = sorted(pool, key=lambda c: (cost[c] * latency[c], c))
            members_list: list[str] = []
            for cloud in ranked:
                members_list.append(cloud)
                if quorum.satisfied_by(members_list):
                    break
            if quorum.satisfied_by(members_list):
                members = tuple(members_list)
                stage_latency = max(latency[c] for c in members)
                stage_cost = sum(cost[c] for c in members)
                best = (None, members, stage_latency, stage_cost)

        if best is None:
            # Even the full pool cannot satisfy the predicate (the config
            # validator should have rejected this); dispatch everything so
            # the engine reports the failure with complete evidence.
            chosen = tuple(names)
            stage_latency = max((self.latency_of(c, kind, payload) for c in chosen),
                                default=0.0)
            stage_cost = sum(self.cost_of(c, kind, payload) for c in chosen)
            return QuorumPlan(primary=chosen, fallback=(), reverted=True,
                              expected_latency=stage_latency, expected_cost=stage_cost)
        _, members, stage_latency, stage_cost = best
        chosen = set(members)
        primary = tuple(cloud for cloud in names if cloud in chosen)
        fallback = tuple(cloud for cloud in names if cloud not in chosen)
        return QuorumPlan(primary=primary, fallback=fallback, reverted=reverted,
                          expected_latency=stage_latency, expected_cost=stage_cost)

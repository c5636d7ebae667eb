"""Configuration of an SCFS agent/deployment.

Defaults follow the values used in the paper's evaluation (§4.1): 500 ms
metadata cache expiration, no private name spaces (worst case, 100 % sharing),
f = 1 for the CoC backend, memory cache of hundreds of MBs and a disk cache of
GBs, and a garbage collector keeping the last versions of each file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.common.units import GB, MB
from repro.clouds.dispatch import DispatchPolicy
from repro.clouds.health import CloudHealthTracker, SuspicionPolicy
from repro.clouds.quorums import (
    ExplicitQuorumSystem,
    QuorumSystem,
    WeightedQuorumSystem,
)
from repro.core.modes import BackendKind, OperationMode

#: Quorum-system modes accepted by :class:`QuorumConfig`.
QUORUM_MODES = ("threshold", "weighted", "explicit")


@dataclass(frozen=True)
class CacheConfig:
    """Sizes and policies of the SCFS Agent's local caches (§2.5.1)."""

    #: Main-memory LRU cache for open files ("hundreds of MBs").
    memory_bytes: int = 256 * MB
    #: Local-disk LRU file cache ("GBs of space", long-term).
    disk_bytes: int = 16 * GB
    #: Expiration of the short-lived metadata cache in seconds (paper: 500 ms).
    metadata_expiration: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical sizes."""
        if self.memory_bytes < 0 or self.disk_bytes < 0:
            raise ConfigurationError("cache sizes must be non-negative")
        if self.metadata_expiration < 0:
            raise ConfigurationError("metadata cache expiration must be non-negative")


@dataclass(frozen=True)
class GarbageCollectionPolicy:
    """Parameters of the per-agent garbage collector (§2.5.3).

    ``written_bytes_threshold`` (W) — the collector is activated every time the
    agent writes more than W bytes; ``versions_to_keep`` (V) — number of most
    recent versions preserved per file.
    """

    written_bytes_threshold: int = 128 * MB
    versions_to_keep: int = 3
    #: Also purge files the user deleted (their versions and metadata entries).
    purge_deleted_files: bool = True
    #: Refined policy (§2.5.3): additionally keep the newest version of each
    #: ``keep_interval_seconds`` bucket (e.g. 86400 for one version per day).
    #: ``None`` disables the age-based retention.
    keep_interval_seconds: float | None = None
    #: Disable automatic activation entirely (collection only via explicit call).
    enabled: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical parameters."""
        if self.versions_to_keep < 1:
            raise ConfigurationError("garbage collector must keep at least one version")
        if self.written_bytes_threshold <= 0:
            raise ConfigurationError("written-bytes threshold must be positive")
        if self.keep_interval_seconds is not None and self.keep_interval_seconds <= 0:
            raise ConfigurationError("the version-retention interval must be positive")


@dataclass(frozen=True)
class DispatchPolicyConfig:
    """Config-level knobs of the quorum dispatch engine and health tracking.

    Mirrors :class:`~repro.clouds.dispatch.DispatchPolicy` (per-request
    timeout, bounded retries, hedged fallback dispatch) and the suspicion
    model of :class:`~repro.clouds.health.SuspicionPolicy`, so that agents and
    benchmark variants enable the whole stack from configuration alone.
    ``suspicion_threshold = 0`` (the default) disables health tracking; any
    positive value builds a per-client
    :class:`~repro.clouds.health.CloudHealthTracker` with the probe-backoff
    and degradation knobs below.
    """

    #: Abandon any single cloud request after this many seconds (None: wait).
    timeout: float | None = None
    #: Extra attempts after a failed or timed-out request.
    retries: int = 0
    #: Dispatch the fallback stage this many seconds after the current stage
    #: started whenever the quorum has not been reached (None: no hedging).
    hedge_delay: float | None = None
    #: Consecutive failures/timeouts that put a cloud on the suspect list
    #: (0 disables health tracking altogether).
    suspicion_threshold: int = 0
    #: First probe window after a suspicion, in simulated seconds.
    probe_backoff: float = 10.0
    #: Multiplier applied to the probe window after each failed probe.
    probe_backoff_factor: float = 2.0
    #: Upper bound of the probe window.
    probe_backoff_max: float = 300.0
    #: Latency-EWMA multiple over the peer median that flags a straggler.
    degraded_factor: float = 3.0
    #: Coalesce identical metadata read quorums issued in the same virtual
    #: instant through one deployment-wide
    #: :class:`~repro.clouds.dispatch.InstantCoalescer` (the scale-out
    #: optimisation; off by default so existing variants replay unchanged).
    coalesce_instant: bool = False
    #: Blend the health tracker's per-cloud latency EWMAs into the backend's
    #: read/write latency *estimates* (the values the non-blocking mode uses
    #: to schedule background-upload completions), so scheduling routes
    #: around known-slow providers.  Off by default: the estimates feed the
    #: background-task timeline, so enabling this shifts event schedules (and
    #: therefore scenario replay fingerprints).
    ewma_estimates: bool = False

    @property
    def tracks_health(self) -> bool:
        """True when this config enables suspect-list tracking."""
        return self.suspicion_threshold > 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical dispatch knobs."""
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("the per-request timeout must be positive")
        if self.retries < 0:
            raise ConfigurationError("the retry count must be non-negative")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ConfigurationError("the hedge delay must be positive")
        if self.suspicion_threshold < 0:
            raise ConfigurationError("the suspicion threshold must be non-negative")
        if self.tracks_health:
            try:
                self.suspicion().validate()
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc

    def to_policy(self) -> DispatchPolicy:
        """The engine-level :class:`~repro.clouds.dispatch.DispatchPolicy`."""
        return DispatchPolicy(timeout=self.timeout, retries=self.retries,
                              hedge_delay=self.hedge_delay)

    def suspicion(self) -> SuspicionPolicy:
        """The suspicion knobs as a :class:`~repro.clouds.health.SuspicionPolicy`."""
        return SuspicionPolicy(
            threshold=max(1, self.suspicion_threshold),
            probe_backoff=self.probe_backoff,
            probe_backoff_factor=self.probe_backoff_factor,
            probe_backoff_max=self.probe_backoff_max,
            degraded_factor=self.degraded_factor,
        )

    def make_tracker(self) -> CloudHealthTracker | None:
        """Build the per-client health tracker, or ``None`` when disabled."""
        if not self.tracks_health:
            return None
        return CloudHealthTracker(self.suspicion())


@dataclass(frozen=True)
class QuorumConfig:
    """Quorum-system selection of the cloud-of-clouds backend.

    The default ``threshold`` mode reproduces the paper's uniform quorums
    (``n - f`` acknowledgements, ``f + 1`` matching digests) byte-identically
    — the backend keeps passing bare counts to the dispatch engine.  The
    ``weighted`` and ``explicit`` modes build a
    :class:`~repro.clouds.quorums.QuorumSystem` over the deployment's
    providers and thread it through every DepSky quorum call; ``planner``
    additionally ranks candidate quorums by expected cost × latency (see
    :class:`~repro.clouds.health.QuorumPlanner`).
    """

    mode: str = "threshold"
    #: Per-provider trust weights, e.g. ``(("amazon-s3", 1.2), ...)``
    #: (``weighted`` mode; must cover the deployment's providers exactly).
    weights: tuple[tuple[str, float], ...] = ()
    #: Total weight of providers that may fail simultaneously (``weighted``).
    fault_budget: float | None = None
    #: Explicit quorum list (``explicit`` mode).
    quorums: tuple[tuple[str, ...], ...] = ()
    #: Fail-prone sets of the explicit system (``explicit`` mode).
    fault_sets: tuple[tuple[str, ...], ...] = ()
    #: Rank candidate quorums by expected cost × latency before dispatch
    #: (non-threshold modes only).
    planner: bool = True

    @property
    def enabled(self) -> bool:
        """True when a non-threshold quorum system is configured."""
        return self.mode != "threshold"

    def _build(self, universe: tuple[str, ...]) -> QuorumSystem:
        if self.mode == "weighted":
            return WeightedQuorumSystem(universe=universe, weights=self.weights,
                                        fault_budget=self.fault_budget or 0.0)
        return ExplicitQuorumSystem(universe=universe, quorums=self.quorums,
                                    fault_sets=self.fault_sets)

    def validate(self) -> None:
        """Reject structurally invalid *and* infeasible quorum configurations.

        Feasibility (quorum intersection + availability under the configured
        fault structure) is checked here, at config time, against the
        provider names the config itself names — not deferred to the first
        quorum call.  :meth:`system_for` re-validates against the actual
        deployment's providers.
        """
        if self.mode not in QUORUM_MODES:
            raise ConfigurationError(
                f"unknown quorum mode {self.mode!r}; known modes: {QUORUM_MODES}")
        if not self.enabled:
            if self.weights or self.fault_budget is not None or self.quorums or self.fault_sets:
                raise ConfigurationError(
                    "threshold quorum mode takes no weights, fault budget, "
                    "quorums or fault sets — set mode='weighted' or 'explicit'")
            return
        if self.mode == "weighted":
            if not self.weights:
                raise ConfigurationError("weighted quorum mode needs per-provider weights")
            if self.fault_budget is None or self.fault_budget <= 0:
                raise ConfigurationError("weighted quorum mode needs a positive fault budget")
            universe = tuple(name for name, _ in self.weights)
        else:
            if not self.quorums:
                raise ConfigurationError("explicit quorum mode needs at least one quorum")
            universe = tuple(sorted(
                {name for quorum in self.quorums for name in quorum}
                | {name for fault_set in self.fault_sets for name in fault_set}))
        try:
            self._build(universe).validate()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def system_for(self, clouds: Sequence[str], f: int) -> QuorumSystem | None:
        """The validated quorum system over the deployment's actual providers.

        Returns ``None`` in threshold mode: the backend then keeps the legacy
        integer counts (``n - f`` / ``f + 1``) so the default path stays
        byte-identical.  Raises :class:`ConfigurationError` when the
        configured provider names do not match the deployment, or when the
        system fails its intersection/availability checks.
        """
        if not self.enabled:
            return None
        names = tuple(clouds)
        if self.mode == "weighted":
            configured = {name for name, _ in self.weights}
            if configured != set(names):
                raise ConfigurationError(
                    f"weighted quorum weights name providers "
                    f"{sorted(configured)} but the deployment has {sorted(names)}")
        else:
            configured = ({name for quorum in self.quorums for name in quorum}
                          | {name for fault_set in self.fault_sets for name in fault_set})
            if not configured <= set(names):
                raise ConfigurationError(
                    f"explicit quorum system names providers "
                    f"{sorted(configured - set(names))} outside the deployment")
        system = self._build(names)
        try:
            system.validate()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        return system


@dataclass(frozen=True)
class TransactionConfig:
    """Knobs of the transactional commit layer (``repro.transactions``).

    A transaction commit is optimistic: reads record the version they saw, and
    the commit re-validates them under the file locks before the per-file
    version CAS.  A failed attempt raises
    :class:`~repro.common.errors.TransactionConflictError`;
    :meth:`~repro.transactions.TransactionManager.run` retries the whole body
    with bounded exponential backoff before giving up with
    :class:`~repro.common.errors.TransactionAbortedError`.
    """

    #: Total commit attempts of :meth:`TransactionManager.run` (first try
    #: included) before the transaction aborts.
    max_attempts: int = 4
    #: Backoff before the first retry, in simulated seconds.
    backoff: float = 0.2
    #: Multiplier applied to the backoff after each failed attempt.
    backoff_factor: float = 2.0
    #: Upper bound of the backoff.
    backoff_max: float = 5.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical retry knobs."""
        if self.max_attempts < 1:
            raise ConfigurationError("a transaction needs at least one commit attempt")
        if self.backoff < 0:
            raise ConfigurationError("the transaction backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("the transaction backoff factor must be >= 1")
        if self.backoff_max < self.backoff:
            raise ConfigurationError("the transaction backoff cap is below the initial backoff")


@dataclass(frozen=True)
class SCFSConfig:
    """Full configuration of one SCFS agent."""

    mode: OperationMode = OperationMode.BLOCKING
    backend: BackendKind = BackendKind.COC
    #: Number of faulty providers/replicas tolerated by the CoC backend.
    fault_tolerance: int = 1
    #: Which coordination service to use ("depspace" or "zookeeper").
    coordination_kind: str = "depspace"
    #: Number of independent coordination services the namespace is partitioned
    #: over (the §5 scalability extension; 1 = the paper's base design).
    coordination_partitions: int = 1
    #: Enable Private Name Spaces for files not shared with other users (§2.7).
    private_name_spaces: bool = False
    #: Encrypt file data before it leaves the client (always on for CoC in the paper).
    encrypt_data: bool = True
    caches: CacheConfig = field(default_factory=CacheConfig)
    gc: GarbageCollectionPolicy = field(default_factory=GarbageCollectionPolicy)
    #: Quorum dispatch policy (timeouts/retries/hedging) and cloud health
    #: tracking (suspect lists) of this agent's storage backend.
    dispatch: DispatchPolicyConfig = field(default_factory=DispatchPolicyConfig)
    #: Quorum-system structure of the CoC backend (threshold/weighted/explicit);
    #: the default threshold mode keeps the legacy integer-count quorums.
    quorum: QuorumConfig = field(default_factory=QuorumConfig)
    #: Retry/backoff policy of the transactional commit layer.
    transactions: TransactionConfig = field(default_factory=TransactionConfig)
    #: Lease of coordination-service sessions/locks in seconds.
    lock_lease: float = 30.0
    #: Interval between retries of the consistency-anchor read loop (Figure 3, r2).
    read_retry_interval: float = 0.5
    #: Maximum retries of the read loop before giving up (bounds simulations).
    read_retry_limit: int = 240

    def validate(self) -> None:
        """Check cross-field consistency; raise :class:`ConfigurationError` otherwise."""
        self.caches.validate()
        self.gc.validate()
        self.dispatch.validate()
        self.quorum.validate()
        self.transactions.validate()
        if self.fault_tolerance < 0:
            raise ConfigurationError("fault tolerance must be non-negative")
        if self.quorum.enabled and self.backend is not BackendKind.COC:
            raise ConfigurationError(
                "weighted/explicit quorum systems require the cloud-of-clouds "
                "backend (a single cloud has no quorum structure)")
        if self.coordination_kind not in ("depspace", "zookeeper"):
            raise ConfigurationError(f"unknown coordination service {self.coordination_kind!r}")
        if self.coordination_partitions < 1:
            raise ConfigurationError("at least one coordination partition is required")
        if self.mode is OperationMode.NON_SHARING and not self.private_name_spaces:
            # The non-sharing mode stores *all* metadata in the PNS by definition.
            raise ConfigurationError("the non-sharing mode requires private name spaces")
        if self.lock_lease <= 0:
            raise ConfigurationError("the lock lease must be positive")
        if self.read_retry_interval <= 0:
            raise ConfigurationError("read retry interval must be positive")
        if self.read_retry_limit < 0:
            raise ConfigurationError("the read retry limit must be non-negative")
        if self.dispatch.hedge_delay is not None and self.backend is not BackendKind.COC:
            # Hedging dispatches a *fallback stage* early; only the
            # cloud-of-clouds backend has one (the single-cloud backend's
            # requests are sequential, so there is nothing to hedge with).
            raise ConfigurationError(
                "hedge_delay requires the cloud-of-clouds backend "
                "(a fallback stage must exist to hedge with)"
            )

    def with_mode(self, mode: OperationMode) -> "SCFSConfig":
        """Return a copy with a different operation mode (PNS forced on for NS)."""
        pns = self.private_name_spaces or mode is OperationMode.NON_SHARING
        return replace(self, mode=mode, private_name_spaces=pns)

    @staticmethod
    def for_variant(name: str, **overrides) -> "SCFSConfig":
        """Build the configuration of one of the Table 2 variants by name."""
        from repro.core.modes import variant  # local import avoids a cycle at module load

        spec = variant(name)
        pns = spec.mode is OperationMode.NON_SHARING or overrides.pop("private_name_spaces", False)
        config = SCFSConfig(
            mode=spec.mode,
            backend=spec.backend,
            fault_tolerance=1 if spec.backend is BackendKind.COC else 0,
            encrypt_data=spec.backend is BackendKind.COC,
            private_name_spaces=pns,
            **overrides,
        )
        config.validate()
        return config

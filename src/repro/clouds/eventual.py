"""In-memory, eventually-consistent object store with latency and cost models.

The store mimics the externally observable behaviour of commercial object
stores circa the paper's evaluation:

* **Eventual consistency** — a PUT is acknowledged immediately but the new
  object only becomes *visible to readers* after a configurable propagation
  delay.  Reads issued before that raise
  :class:`~repro.common.errors.ObjectNotFoundError` (read-after-write of a
  *new key* may miss) or return the previous version (overwrite of an existing
  key), exactly the anomaly the consistency-anchor read loop of Figure 3
  tolerates.
* **Latency charging** — every request advances the shared simulated clock by
  the provider's latency model (base + payload/bandwidth).
* **ACL enforcement** — per-object grants keyed by canonical identifiers.
* **Fault injection** — unavailability, corruption, Byzantine responses,
  dropped writes and latency degradation (a DEGRADED window multiplies every
  request's latency, modelling a gray-failing straggler), driven by a
  :class:`~repro.simenv.failures.FailureSchedule`.
* **Cost accounting** — all requests, traffic and storage are recorded in a
  :class:`~repro.clouds.accounting.CostTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    AccessDeniedError,
    CloudUnavailableError,
    ObjectNotFoundError,
)
from repro.common.types import Permission, Principal
from repro.clouds.access_control import ObjectACL
from repro.clouds.accounting import CostTracker
from repro.clouds.object_store import ObjectListing, ObjectStore, ObjectVersion
from repro.clouds.pricing import StoragePricing
from repro.crypto.hashing import content_digest
from repro.simenv.environment import Simulation
from repro.simenv.failures import FailureSchedule, FaultKind
from repro.simenv.latency import NetworkProfile


@dataclass(slots=True)
class _StoredObject:
    """Internal record of one object key in the store.

    ``slots=True`` matters at scale: a primed 10^5-file pool holds ~10^6 of
    these records, and per-instance ``__dict__``s would double their footprint.
    """

    key: str
    data: bytes
    acl: ObjectACL
    created_at: float
    visible_at: float
    #: Hex digest of the payload as *sent* by the writer.  ``None`` defers the
    #: sha256 until :meth:`digest_value` is first asked for it (``put`` on the
    #: fault-free path stores the bytes unmodified, so hashing them up front
    #: would charge every block put a full-payload pass for a value that only
    #: ``head`` ever reports).
    digest: str | None
    previous: "_StoredObject | None" = None
    #: Start of the not-yet-settled storage-accounting span.  Defaults to the
    #: creation clock — a ``0.0`` default would let byte-seconds accounting
    #: charge an object from simulation start instead of from its creation.
    stored_since: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.stored_since is None:
            self.stored_since = self.created_at

    def digest_value(self) -> str:
        """The as-put digest, computed on first use (valid only because the
        fault-free ``put`` stores the sent bytes unmodified; fault paths that
        substitute the stored bytes compute the digest eagerly)."""
        if self.digest is None:
            self.digest = content_digest(self.data)
        return self.digest

    def visible_version(self, now: float) -> "_StoredObject | None":
        """Return the newest version of this key already visible at ``now``."""
        version: _StoredObject | None = self
        while version is not None and version.visible_at > now:
            version = version.previous
        return version


class EventuallyConsistentStore(ObjectStore):
    """Simulated eventually-consistent cloud object store.

    Parameters
    ----------
    sim:
        Shared simulation environment (clock, RNG).
    name:
        Provider name (used for canonical ids and reporting).
    profile:
        Latency/propagation profile of this provider as seen from the client.
    pricing:
        Pricing table used by the embedded cost tracker.
    failures:
        Optional failure schedule; when omitted the provider never misbehaves.
    charge_latency:
        When ``False`` the store does not advance the simulated clock; used by
        components that account for latency at a higher level (e.g. DepSky's
        parallel quorum accesses).
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "cloud",
        profile: NetworkProfile | None = None,
        pricing: StoragePricing | None = None,
        failures: FailureSchedule | None = None,
        charge_latency: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.profile = profile or NetworkProfile(name=name)
        self.costs = CostTracker(pricing or StoragePricing())
        self.failures = failures or FailureSchedule()
        self.charge_latency = charge_latency
        self._objects: dict[str, _StoredObject] = {}
        # Bucket policies: prefix -> {canonical_id: Permission}.  They model the
        # prefix-level grants commercial clouds offer; SCFS's setfacl uses them
        # so that *future* versions of a shared file inherit the grant.
        self._bucket_policies: dict[str, dict[str, Permission]] = {}
        self.request_log: list[tuple[str, str, int]] = []

    # ------------------------------------------------------------------ util

    def _charge(self, model, payload: int = 0) -> float:
        latency = model.sample(payload, self.sim.rng)
        latency *= self.failures.degradation(self.sim.now())
        if self.charge_latency:
            self.sim.advance(latency)
        return latency

    def request_latency(self, kind: str, payload: int = 0) -> float:
        """Sample the latency of one ``kind`` request moving ``payload`` bytes.

        Used by the quorum dispatch engine, which models the parallel requests
        of a cloud-of-clouds client itself (the stores are then created with
        ``charge_latency=False``).  Applies any active DEGRADED fault window.
        """
        model = getattr(self.profile, kind)
        return model.sample(payload, self.sim.rng) * self.failures.degradation(self.sim.now())

    def expected_request_latency(self, kind: str, payload: int = 0) -> float:
        """Deterministic expected latency of one ``kind`` request (no RNG draw)."""
        model = getattr(self.profile, kind)
        return model.expected(payload) * self.failures.degradation(self.sim.now())

    def _fail_if_unavailable(self) -> None:
        if self.failures.is_active(FaultKind.UNAVAILABLE, self.sim.now()):
            raise CloudUnavailableError(f"provider {self.name} is unavailable")

    def _maybe_corrupt(self, data: bytes) -> bytes:
        now = self.sim.now()
        if self.failures.is_active(FaultKind.BYZANTINE, now):
            # A Byzantine provider may return arbitrary data; we return a
            # deterministic wrong payload so tests are reproducible.
            return b"byzantine:" + data[::-1]
        if self.failures.is_active(FaultKind.CORRUPTION, now) and data:
            corrupted = bytearray(data)
            corrupted[0] ^= 0xFF
            return bytes(corrupted)
        return data

    def _policy_allows(self, key: str, canonical_id: str, permission: Permission) -> bool:
        for prefix, grants in self._bucket_policies.items():
            if key.startswith(prefix):
                granted = grants.get(canonical_id, Permission.NONE) | grants.get("*", Permission.NONE)
                if (granted & permission) == permission:
                    return True
        return False

    def _check_access(self, obj: _StoredObject, key: str, principal: Principal,
                      permission: Permission) -> None:
        cid = principal.canonical_id(self.name)
        if obj.acl.allows(cid, permission) or self._policy_allows(key, cid, permission):
            return
        raise AccessDeniedError(
            f"{principal.name} ({cid}) lacks {permission} on {key!r} at {self.name}"
        )

    def _settle_storage(self, obj: _StoredObject) -> None:
        """Charge storage cost for the time elapsed since the last settlement."""
        now = self.sim.now()
        elapsed = now - obj.stored_since
        if elapsed > 0:
            self.costs.record_storage(len(obj.data), elapsed)
            obj.stored_since = now

    # ------------------------------------------------------------------ API

    def put(self, key: str, data: bytes, principal: Principal) -> ObjectVersion:
        self._fail_if_unavailable()
        self._charge(self.profile.object_put, len(data))
        self.request_log.append(("put", key, len(data)))
        self.costs.record_put(len(data))
        now = self.sim.now()
        current = self._objects.get(key)
        if current is not None:
            self._check_access(current, key, principal, Permission.WRITE)
            self._settle_storage(current)
            acl = current.acl
        else:
            acl = ObjectACL(owner=principal.canonical_id(self.name))
        stored_data = data
        if self.failures.is_active(FaultKind.DROP_WRITES, now):
            # The provider acknowledges but silently loses the payload: keep
            # the previous version (if any) as the "stored" one.
            stored_data = current.data if current is not None else b""
        if self.failures.is_active(FaultKind.CORRUPTION, now):
            stored_data = self._maybe_corrupt(stored_data)
        # Fault-free puts store the sent bytes unmodified, so the as-put
        # digest can be derived lazily from them (see ``_StoredObject``);
        # fault paths that substitute the stored bytes must hash eagerly.
        digest = None if stored_data is data else content_digest(data)
        obj = _StoredObject(
            key=key,
            data=stored_data,
            acl=acl,
            created_at=now,
            visible_at=now + self.profile.propagation_delay,
            digest=digest,
            previous=current,
            stored_since=now,
        )
        self._objects[key] = obj
        # The returned version reports the digest only when it is already
        # known; ``head`` is the API that guarantees one (no current caller
        # consumes put's return value, and hashing every put eagerly would
        # serialise a full-payload sha256 into the write hot path).
        return ObjectVersion(key=key, size=len(data), created_at=now,
                             digest=digest or "")

    def get(self, key: str, principal: Principal) -> bytes:
        self._fail_if_unavailable()
        obj = self._objects.get(key)
        visible = obj.visible_version(self.sim.now()) if obj is not None else None
        payload = visible.data if visible is not None else b""
        self._charge(self.profile.object_get, len(payload))
        self.request_log.append(("get", key, len(payload)))
        self.costs.record_get(len(payload))
        if visible is None:
            raise ObjectNotFoundError(f"{self.name}: no visible object under key {key!r}")
        self._check_access(visible, key, principal, Permission.READ)
        return self._maybe_corrupt(visible.data)

    def head(self, key: str, principal: Principal) -> ObjectVersion:
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        self.request_log.append(("head", key, 0))
        self.costs.record_get(0)
        obj = self._objects.get(key)
        visible = obj.visible_version(self.sim.now()) if obj is not None else None
        if visible is None:
            raise ObjectNotFoundError(f"{self.name}: no visible object under key {key!r}")
        self._check_access(visible, key, principal, Permission.READ)
        return ObjectVersion(
            key=key, size=len(visible.data), created_at=visible.created_at,
            digest=visible.digest_value(),
        )

    def delete(self, key: str, principal: Principal) -> None:
        self._fail_if_unavailable()
        self._charge(self.profile.object_delete)
        self.request_log.append(("delete", key, 0))
        self.costs.record_delete()
        obj = self._objects.get(key)
        if obj is None:
            return
        self._check_access(obj, key, principal, Permission.WRITE)
        self._settle_storage(obj)
        del self._objects[key]

    def list_keys(self, prefix: str, principal: Principal) -> ObjectListing:
        self._fail_if_unavailable()
        self._charge(self.profile.object_list)
        self.request_log.append(("list", prefix, 0))
        self.costs.record_list()
        now = self.sim.now()
        listing = ObjectListing()
        for key, obj in sorted(self._objects.items()):
            if not key.startswith(prefix):
                continue
            visible = obj.visible_version(now)
            if visible is None:
                continue
            cid = principal.canonical_id(self.name)
            if not (visible.acl.allows(cid, Permission.READ)
                    or self._policy_allows(key, cid, Permission.READ)):
                continue
            listing.keys.append(key)
            listing.total_bytes += len(visible.data)
        return listing

    def exists(self, key: str, principal: Principal) -> bool:
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        self.request_log.append(("exists", key, 0))
        obj = self._objects.get(key)
        visible = obj.visible_version(self.sim.now()) if obj is not None else None
        if visible is None:
            return False
        cid = principal.canonical_id(self.name)
        return visible.acl.allows(cid, Permission.READ) or self._policy_allows(
            key, cid, Permission.READ
        )

    def set_acl(self, key: str, grantee_canonical_id: str, permission: Permission,
                principal: Principal) -> None:
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        self.request_log.append(("set_acl", key, 0))
        obj = self._objects.get(key)
        if obj is None:
            raise ObjectNotFoundError(f"{self.name}: cannot set ACL on missing key {key!r}")
        if obj.acl.owner != principal.canonical_id(self.name):
            raise AccessDeniedError(f"only the owner may change the ACL of {key!r}")
        # ACL changes apply to every version of the key (they share the object).
        obj.acl.grant(grantee_canonical_id, permission)

    def get_acl(self, key: str, principal: Principal) -> dict[str, Permission]:
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        obj = self._objects.get(key)
        if obj is None:
            raise ObjectNotFoundError(f"{self.name}: cannot read ACL of missing key {key!r}")
        self._check_access(obj, key, principal, Permission.READ)
        return dict(obj.acl.grants)

    def set_bucket_policy(self, prefix: str, grantee_canonical_id: str,
                          permission: Permission, principal: Principal) -> None:
        """Grant ``permission`` on every current and future key under ``prefix``.

        Models the prefix-level (bucket-policy) grants offered by commercial
        clouds.  SCFS's ``setfacl`` uses one policy update per cloud so that
        new versions of a shared file are readable by the grantee without
        touching each stored object (§2.6).
        """
        self._fail_if_unavailable()
        self._charge(self.profile.metadata_op)
        self.request_log.append(("set_policy", prefix, 0))
        grants = self._bucket_policies.setdefault(prefix, {})
        if permission is Permission.NONE:
            grants.pop(grantee_canonical_id, None)
        else:
            grants[grantee_canonical_id] = permission

    # --------------------------------------------------------------- helpers

    def raw_object(self, key: str) -> bytes | None:
        """Bytes stored under ``key`` exactly as the provider holds them.

        Bypasses visibility delays, ACLs, fault injection and latency charging
        — the ground-truth view the scenario engine's durability checker uses
        to count how many providers really hold a verifiable block.
        """
        obj = self._objects.get(key)
        return obj.data if obj is not None else None

    def stored_bytes(self) -> int:
        """Total bytes currently stored (all visible and in-flight versions)."""
        return sum(len(o.data) for o in self._objects.values())

    def object_count(self) -> int:
        """Number of keys currently present (visible or not)."""
        return len(self._objects)

    def force_visibility(self) -> None:
        """Make every stored version immediately visible (test helper)."""
        now = self.sim.now()
        for obj in self._objects.values():
            version: _StoredObject | None = obj
            while version is not None:
                version.visible_at = min(version.visible_at, now)
                version = version.previous

"""Namespace-partitioned coordination (the scalability extension of §5).

The paper notes that "simple extensions would allow SCFS to use multiple
coordination services, each one dealing with a subtree of the namespace
(improving its scalability)", the same approach Farsite takes.  This module
implements that extension: a :class:`PartitionedCoordination` exposes the
standard :class:`~repro.coordination.base.CoordinationService` interface while
routing every entry and lock to one of ``n`` underlying coordination services
chosen by a deterministic partitioning function over the key.

Because the SCFS Agent's metadata keys embed the file path, partitioning by
the top-level directory (the default) spreads different users' or projects'
subtrees across independent replicated services, multiplying the metadata
capacity and halving (or better) the load per service.  Operations that span
partitions (``list_prefix`` with a short prefix) simply fan out.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro.common.types import Permission, Principal
from repro.coordination.base import CoordinationService, Entry, Session


def partition_by_top_level_directory(key: str, partitions: int) -> int:
    """Default partitioning function: hash the first path component of the key.

    Metadata keys look like ``meta:/a/b/c`` and lock names like
    ``filelock:file-000123``; taking the first component after the prefix keeps
    all entries of one top-level subtree in the same partition, so rename and
    readdir of a subtree stay single-partition.
    """
    payload = key.split(":", 1)[-1]
    top_level = payload.strip("/").split("/", 1)[0] if payload.strip("/") else ""
    digest = hashlib.sha256(top_level.encode()).digest()
    return digest[0] % partitions


class _ChargeProxy:
    """Expose a single ``charge_latency`` switch spanning every partition.

    The SCFS Agent suspends coordination latency charging around background
    work by toggling ``coordination.rsm.charge_latency``; this proxy forwards
    that toggle to the replicated state machine of every partition.
    """

    def __init__(self, services: Sequence[CoordinationService]):
        self._services = services

    @property
    def charge_latency(self) -> bool:
        rsms = [getattr(s, "rsm", None) for s in self._services]
        return all(r.charge_latency for r in rsms if r is not None)

    @charge_latency.setter
    def charge_latency(self, value: bool) -> None:
        for service in self._services:
            rsm = getattr(service, "rsm", None)
            if rsm is not None:
                rsm.charge_latency = value


class PartitionedCoordination(CoordinationService):
    """Route coordination operations across several underlying services."""

    def __init__(
        self,
        services: Sequence[CoordinationService],
        partition_function: Callable[[str, int], int] = partition_by_top_level_directory,
    ):
        if not services:
            raise ValueError("at least one underlying coordination service is required")
        self.services = list(services)
        self.partition_function = partition_function
        #: Latency-charging proxy spanning every partition (see _ChargeProxy).
        self.rsm = _ChargeProxy(self.services)

    # -- routing ----------------------------------------------------------------

    def _service_for(self, key: str) -> CoordinationService:
        index = self.partition_function(key, len(self.services))
        return self.services[index % len(self.services)]

    # -- sessions ----------------------------------------------------------------
    #
    # A client session must exist on every partition, because a single file
    # system operation may touch entries routed to different services.

    def open_session(self, principal: Principal, lease_seconds: float = 30.0) -> Session:
        sub_sessions = [s.open_session(principal, lease_seconds) for s in self.services]
        session = Session(
            session_id=sub_sessions[0].session_id,
            principal=principal,
            lease_seconds=lease_seconds,
            last_renewal=sub_sessions[0].last_renewal,
        )
        # Stash the per-partition sessions on the façade session object.
        session.partitions = sub_sessions  # type: ignore[attr-defined]
        return session

    def _sub_session(self, session: Session, service: CoordinationService) -> Session:
        sub_sessions = getattr(session, "partitions", None)
        if not sub_sessions:
            return session
        return sub_sessions[self.services.index(service)]

    def renew_session(self, session: Session) -> None:
        for service, sub in zip(self.services, getattr(session, "partitions", []), strict=False):
            service.renew_session(sub)
        session.last_renewal = max((s.last_renewal for s in getattr(session, "partitions", [session])),
                                   default=session.last_renewal)

    def close_session(self, session: Session) -> None:
        for service, sub in zip(self.services, getattr(session, "partitions", []), strict=False):
            service.close_session(sub)

    # -- entries ------------------------------------------------------------------

    def put(self, key: str, value: bytes, session: Session,
            expected_version: int | None = None) -> Entry:
        service = self._service_for(key)
        return service.put(key, value, self._sub_session(session, service), expected_version)

    def get(self, key: str, session: Session) -> Entry:
        service = self._service_for(key)
        return service.get(key, self._sub_session(session, service))

    def delete(self, key: str, session: Session) -> None:
        service = self._service_for(key)
        service.delete(key, self._sub_session(session, service))

    def list_prefix(self, prefix: str, session: Session) -> list[str]:
        keys: set[str] = set()
        for service in self.services:
            keys.update(service.list_prefix(prefix, self._sub_session(session, service)))
        return sorted(keys)

    def set_entry_acl(self, key: str, user: str, permission: Permission,
                      session: Session) -> None:
        service = self._service_for(key)
        service.set_entry_acl(key, user, permission, self._sub_session(session, service))

    # -- locking --------------------------------------------------------------------

    def try_lock(self, name: str, session: Session) -> bool:
        service = self._service_for(name)
        return service.try_lock(name, self._sub_session(session, service))

    def unlock(self, name: str, session: Session) -> None:
        service = self._service_for(name)
        service.unlock(name, self._sub_session(session, service))

    def lock_holder(self, name: str) -> str | None:
        return self._service_for(name).lock_holder(name)

    # -- introspection ----------------------------------------------------------------

    def entry_count(self) -> int:
        return sum(service.entry_count() for service in self.services)

    def stored_bytes(self) -> int:
        return sum(service.stored_bytes() for service in self.services)

    def per_partition_entries(self) -> list[int]:
        """Entry count of each partition (used to observe load spreading)."""
        return [service.entry_count() for service in self.services]

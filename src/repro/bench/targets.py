"""Factories for every system under test.

A :class:`BenchTarget` bundles a freshly built file system, the simulation it
runs on and enough context to drain background work and to collect provider
costs — everything a workload needs, regardless of whether the target is an
SCFS variant or one of the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.localfs import LocalFS
from repro.baselines.s3fs import S3FSLike
from repro.baselines.s3ql import S3QLLike
from repro.clouds.providers import make_provider
from repro.common.types import Principal
from repro.clouds.health import HealthStats
from repro.core.backend import ReadPathStats
from repro.core.deployment import SCFSDeployment
from repro.core.modes import VARIANTS
from repro.simenv.environment import Simulation

#: The six SCFS variants of Table 2, in the column order of Table 3.
SCFS_VARIANT_NAMES: tuple[str, ...] = (
    "SCFS-AWS-NS",
    "SCFS-AWS-NB",
    "SCFS-AWS-B",
    "SCFS-CoC-NS",
    "SCFS-CoC-NB",
    "SCFS-CoC-B",
)

#: Every system of Table 3 (six SCFS variants + the three baselines).
ALL_TARGET_NAMES: tuple[str, ...] = (*SCFS_VARIANT_NAMES, "S3FS", "S3QL", "LocalFS")


@dataclass
class BenchTarget:
    """One system under test, ready to receive a workload."""

    name: str
    fs: object
    sim: Simulation
    deployment: SCFSDeployment | None = None
    user: str = "bench-user"

    def drain(self, extra: float = 0.0) -> None:
        """Run every pending background task (uploads, GC) to completion."""
        if self.deployment is not None:
            self.deployment.drain(extra)
        else:
            self.sim.drain(extra)

    def is_scfs(self) -> bool:
        """True for SCFS variants, False for the baselines."""
        return self.deployment is not None

    def _merged_backend_stat(self, getter):
        """Fold one per-backend statistic (anything with ``merge``) over all agents."""
        if self.deployment is None:
            return None
        merged = None
        for filesystem in self.deployment.filesystems.values():
            backend = getattr(getattr(filesystem, "agent", None), "backend", None)
            snapshot = getter(backend) if backend is not None else None
            if snapshot is not None:
                merged = snapshot if merged is None else merged.merge(snapshot)
        return merged

    def read_path_stats(self) -> ReadPathStats | None:
        """Aggregate DepSky read-path statistics across this target's agents.

        Returns ``None`` for targets without a cloud-of-clouds backend (the
        single-cloud variants and the baselines have no preferred quorum to
        hit or miss).
        """
        return self._merged_backend_stat(lambda backend: getattr(backend, "read_paths", None))

    def health_stats(self) -> HealthStats | None:
        """Aggregate cloud-suspicion counters across this target's agents.

        Returns ``None`` for baselines and for SCFS configs that leave health
        tracking disabled (``dispatch.suspicion_threshold == 0``).
        """
        return self._merged_backend_stat(lambda backend: backend.health_stats())


def build_target(name: str, seed: int = 0, **scfs_overrides) -> BenchTarget:
    """Build a named system under test on a fresh simulation.

    ``name`` is one of :data:`ALL_TARGET_NAMES`.  ``scfs_overrides`` are extra
    :class:`~repro.core.config.SCFSConfig` fields applied to SCFS variants
    (e.g. ``private_name_spaces=True`` or a custom ``caches`` config); they are
    ignored for baselines.
    """
    sim = Simulation(seed=seed)
    if name in VARIANTS:
        deployment = SCFSDeployment.for_variant(name, sim=sim, **scfs_overrides)
        fs = deployment.create_agent("bench-user")
        return BenchTarget(name=name, fs=fs, sim=sim, deployment=deployment)
    if name == "S3FS":
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        fs = S3FSLike(sim, store, Principal("bench-user"))
        return BenchTarget(name=name, fs=fs, sim=sim)
    if name == "S3QL":
        store = make_provider(sim, "amazon-s3", charge_latency=True)
        fs = S3QLLike(sim, store, Principal("bench-user"))
        return BenchTarget(name=name, fs=fs, sim=sim)
    if name == "LocalFS":
        return BenchTarget(name=name, fs=LocalFS(sim), sim=sim)
    raise KeyError(f"unknown benchmark target {name!r}; known: {ALL_TARGET_NAMES}")

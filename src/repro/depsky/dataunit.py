"""Data-unit metadata stored (replicated) in every cloud.

Each DepSky data unit keeps, *in every cloud*, a small metadata object listing
the versions written so far: version number, digest of the plaintext, digest of
each coded block, the payload size and the writing principal.  The hashes of
all versions being present in this metadata object is what allows the SCFS
extension ``read_matching(hash)`` to locate an arbitrary version (§3.2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class VersionRecord:
    """Metadata of one written version of a data unit."""

    version: int
    data_digest: str
    size: int
    block_digests: tuple[str, ...]
    created_at: float
    writer: str

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "version": self.version,
            "data_digest": self.data_digest,
            "size": self.size,
            "block_digests": list(self.block_digests),
            "created_at": self.created_at,
            "writer": self.writer,
        }

    @staticmethod
    def from_dict(raw: dict) -> "VersionRecord":
        """Deserialise from :meth:`to_dict` output."""
        return VersionRecord(
            version=int(raw["version"]),
            data_digest=str(raw["data_digest"]),
            size=int(raw["size"]),
            block_digests=tuple(raw["block_digests"]),
            created_at=float(raw["created_at"]),
            writer=str(raw["writer"]),
        )


@dataclass
class DataUnitMetadata:
    """The full version history of one data unit."""

    unit_id: str
    versions: list[VersionRecord] = field(default_factory=list)

    def latest(self) -> VersionRecord | None:
        """The most recent version record, or None for an empty unit."""
        return max(self.versions, key=lambda v: v.version) if self.versions else None

    def find_by_digest(self, digest: str) -> VersionRecord | None:
        """Return the (most recent) version whose plaintext digest is ``digest``."""
        candidates = [v for v in self.versions if v.data_digest == digest]
        return max(candidates, key=lambda v: v.version) if candidates else None

    def next_version(self) -> int:
        """Version number the next write should use."""
        latest = self.latest()
        return 1 if latest is None else latest.version + 1

    def add(self, record: VersionRecord) -> None:
        """Append a new version record."""
        self.versions.append(record)

    def remove_version(self, version: int) -> bool:
        """Remove the record with the given version number; True if removed."""
        before = len(self.versions)
        self.versions = [v for v in self.versions if v.version != version]
        return len(self.versions) != before

    def to_bytes(self) -> bytes:
        """Serialise the metadata object for storage in a cloud."""
        return json.dumps(
            {"unit_id": self.unit_id, "versions": [v.to_dict() for v in self.versions]},
            sort_keys=True,
        ).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "DataUnitMetadata":
        """Parse a metadata object read from a cloud.

        Raises ``ValueError`` if the blob is not valid metadata (e.g. returned
        by a Byzantine provider).
        """
        try:
            raw = json.loads(blob.decode())
            return DataUnitMetadata(
                unit_id=str(raw["unit_id"]),
                versions=[VersionRecord.from_dict(v) for v in raw["versions"]],
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed data-unit metadata: {exc}") from exc

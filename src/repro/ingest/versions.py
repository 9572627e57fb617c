"""Immutable, versioned artifact sets for the streaming ingest loop.

Every :class:`~repro.ingest.stream.StreamIngestor` refresh publishes one
*version*: a directory holding the refreshed artifact set (corpus store,
proximity graph, entity embeddings, propagated vectors and a servable
checkpoint) plus a ``manifest.json`` with the version id, its parent and a
SHA-256 digest of every member file — the same integrity scheme as
:mod:`repro.utils.checkpoint`.  Versions are monotonically numbered
(``v000001``, ``v000002``, ...), written to a staging directory and sealed
with one atomic rename, and a ``CURRENT`` pointer file is swapped with
``os.replace`` so readers (the serving daemon's
:meth:`~repro.serve.daemon.ServingDaemon.watch` poller) always see either
the old or the new version, never a partial one.

The store is single-writer by design: the ingest loop is the only publisher
and version ids are allocated by scanning the directory, so two concurrent
ingestors racing the same root would be a deployment error (documented, not
locked against).  Readers are lock-free.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..exceptions import DataError
from ..utils.logging import get_logger
from ..utils.serialization import file_sha256

logger = get_logger("ingest.versions")

PathLike = Union[str, Path]

#: On-disk format marker written into every version manifest.
VERSION_STORE_FORMAT = 1

#: Name of the atomically swapped pointer file at the store root.
CURRENT_POINTER = "CURRENT"

#: Manifest file name inside each version directory.
MANIFEST_NAME = "manifest.json"

#: Sub-path of the servable checkpoint inside a version directory (the
#: serving daemon's watch loop reloads from here).
CHECKPOINT_MEMBER = "checkpoint"


def _version_dir_name(version: int) -> str:
    return f"v{version:06d}"


@dataclass(frozen=True)
class VersionInfo:
    """One published version: id, location and parsed manifest."""

    version: int
    path: Path
    manifest: Dict[str, Any]

    @property
    def checkpoint_path(self) -> Path:
        """The servable checkpoint directory inside this version."""
        return self.path / CHECKPOINT_MEMBER

    @property
    def parent(self) -> Optional[int]:
        parent = self.manifest.get("parent")
        return int(parent) if parent is not None else None


class ArtifactVersionStore:
    """Monotonically versioned artifact sets with an atomic CURRENT pointer."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _version_ids(self) -> List[int]:
        ids = []
        for entry in self.root.iterdir():
            if (
                entry.is_dir()
                and entry.name.startswith("v")
                and entry.name[1:].isdigit()
                and (entry / MANIFEST_NAME).exists()
            ):
                ids.append(int(entry.name[1:]))
        return sorted(ids)

    def _info(self, version: int) -> VersionInfo:
        path = self.root / _version_dir_name(version)
        try:
            with open(path / MANIFEST_NAME, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise DataError(f"version {version} manifest is unreadable: {error}")
        if int(manifest.get("version", -1)) != version:
            raise DataError(
                f"version directory {path.name} holds a manifest for version "
                f"{manifest.get('version')}"
            )
        return VersionInfo(version=version, path=path, manifest=manifest)

    def list_versions(self) -> List[VersionInfo]:
        """All sealed versions, oldest first."""
        return [self._info(version) for version in self._version_ids()]

    def latest(self) -> Optional[VersionInfo]:
        """The highest sealed version, regardless of the CURRENT pointer."""
        ids = self._version_ids()
        return self._info(ids[-1]) if ids else None

    def current(self) -> Optional[VersionInfo]:
        """The version the CURRENT pointer names (``None`` before any publish)."""
        pointer = self.root / CURRENT_POINTER
        try:
            text = pointer.read_text(encoding="ascii").strip()
        except FileNotFoundError:
            return None
        if not text.isdigit():
            raise DataError(f"CURRENT pointer is corrupt: {text!r}")
        return self._info(int(text))

    def verify(self, info: VersionInfo) -> None:
        """Re-hash every manifested member; mismatch raises :class:`DataError`."""
        for member, expected in info.manifest.get("files", {}).items():
            path = info.path / member
            if not path.exists():
                raise DataError(f"version {info.version} is missing member {member}")
            actual = file_sha256(path)
            if actual != expected:
                raise DataError(
                    f"version {info.version} member {member} hash mismatch "
                    f"(expected {expected[:12]}..., got {actual[:12]}...)"
                )

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        write: Callable[[Path], None],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> VersionInfo:
        """Seal the next version: ``write(staging_dir)``, manifest, atomic swap.

        ``write`` receives an empty staging directory and populates it with
        the artifact files (nested directories allowed).  Every file is then
        sha256-hashed into the manifest, the staging directory is renamed to
        its final ``v%06d`` name in one ``os.rename``, and the ``CURRENT``
        pointer is swapped via a temporary file + ``os.replace``.  A failed
        ``write`` leaves no partial version behind.
        """
        ids = self._version_ids()
        version = (ids[-1] + 1) if ids else 1
        final = self.root / _version_dir_name(version)
        staging = self.root / f".staging-{_version_dir_name(version)}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            write(staging)
            files = {
                str(path.relative_to(staging)): file_sha256(path)
                for path in sorted(staging.rglob("*"))
                if path.is_file()
            }
            manifest = {
                "format_version": VERSION_STORE_FORMAT,
                "version": version,
                "parent": ids[-1] if ids else None,
                "files": files,
                "metadata": metadata or {},
            }
            with open(staging / MANIFEST_NAME, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            os.rename(staging, final)
        except Exception:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._swap_current(version)
        logger.info("published version %d (%d files)", version, len(files))
        return VersionInfo(version=version, path=final, manifest=manifest)

    def _swap_current(self, version: int) -> None:
        pointer = self.root / CURRENT_POINTER
        tmp = self.root / f".{CURRENT_POINTER}.tmp-{os.getpid()}"
        tmp.write_text(f"{version}\n", encoding="ascii")
        os.replace(tmp, pointer)

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def prune(self, keep_last: int) -> int:
        """Delete the oldest versions beyond the ``keep_last`` most recent.

        The version the CURRENT pointer names is never deleted, whatever
        ``keep_last`` says.  Returns the number of versions removed.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        ids = self._version_ids()
        current = self.current()
        current_id = current.version if current is not None else None
        doomed = [
            version
            for version in ids[: max(0, len(ids) - keep_last)]
            if version != current_id
        ]
        for version in doomed:
            shutil.rmtree(self.root / _version_dir_name(version), ignore_errors=True)
            logger.info("pruned version %d", version)
        return len(doomed)

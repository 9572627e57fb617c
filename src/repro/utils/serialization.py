"""Array-file and file-hash helpers shared by every artifact writer."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Mapping, Union

import numpy as np

PathLike = Union[str, Path]


def save_npz(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Save a mapping of named arrays to an ``.npz`` file of stored members.

    Members are written uncompressed (``np.savez``): deflating float weights
    and embeddings costs far more time than it saves disk.  :func:`load_npz`
    (``np.load``) reads stored and deflated members alike, so files written
    with ``np.savez_compressed`` stay readable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{str(k): np.asarray(v) for k, v in arrays.items()})
    return path


def load_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a mapping of named arrays saved by :func:`save_npz`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        return {key: np.array(data[key]) for key in data.files}


def file_sha256(path: PathLike) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()

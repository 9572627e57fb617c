"""Scratch pooling and the compute-dtype pin for the batched forward.

The batched forward that trains and serves (:mod:`repro.batch.training`)
runs one formulation: plain numpy (``np.matmul`` and an im2col loop) with
every per-batch scratch array pooled in a :class:`Workspace`.  What a
backend name still chooses is the compute dtype, and only when a caller pins
it explicitly:

``reference``
    The model's own dtype (float64 by default); the same as not pinning.
``fast``
    float32 weights and activations: a float32 copy of the model on the
    serve path (final softmax in float64), and a float32 forward/backward
    graph against float64 master weights in training.  Served probabilities
    stay within ``1e-5`` of the reference with identical predicted labels
    (``tests/test_backend.py``); the training contract is in
    ``docs/architecture.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["BACKEND_DTYPES", "Workspace", "backend_dtype"]

#: Compute dtype each backend name pins; ``None`` keeps the model's dtype.
BACKEND_DTYPES: Dict[str, Optional[np.dtype]] = {
    "reference": None,
    "fast": np.dtype(np.float32),
}


def backend_dtype(name: Optional[str]) -> Optional[np.dtype]:
    """The compute dtype the backend ``name`` pins (``None``: the model's own).

    ``None`` is no pin.  Unknown names raise
    :class:`~repro.exceptions.ConfigurationError` listing the choices.
    """
    if name is None:
        return None
    try:
        return BACKEND_DTYPES[name]
    except KeyError:
        choices = ", ".join(sorted(BACKEND_DTYPES))
        raise ConfigurationError(
            f"unknown compute backend '{name}'; available backends: {choices}"
        ) from None


class Workspace:
    """A named pool of reusable scratch buffers.

    Serving allocates the same padded token matrices, im2col buffers and
    activation arrays for every batch; a workspace hands out views over
    buffers that persist across batches instead.  Buffers are keyed by
    ``(name, dtype)`` and grow geometrically, so a steady-state serving
    loop stops allocating entirely once it has seen its widest batch.

    Views handed out for the *same key* alias the same memory — callers must
    use one key per concurrently-live array (the batched forward does).  A
    workspace is not thread-safe; use one per worker thread
    (:class:`~repro.serve.PredictionService` keeps them thread-local).
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self._allocations = 0
        self._high_water_nbytes = 0

    def request(
        self,
        key: str,
        shape: Tuple[int, ...],
        dtype: Union[np.dtype, type] = np.float64,
    ) -> np.ndarray:
        """A contiguous array of exactly ``shape``/``dtype``, reused across calls.

        Contents are uninitialised (like :func:`numpy.empty`); callers that
        need a fill value must write one.
        """
        dtype = np.dtype(dtype)
        needed = int(math.prod(shape))
        buffer = self._buffers.get((key, dtype))
        if buffer is None or buffer.size < needed:
            capacity = needed if buffer is None else max(needed, 2 * buffer.size)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[(key, dtype)] = buffer
            self._allocations += 1
            self._high_water_nbytes = max(self._high_water_nbytes, self.nbytes)
        return buffer[:needed].reshape(shape)

    def request_filled(
        self,
        key: str,
        shape: Tuple[int, ...],
        dtype: Union[np.dtype, type],
        fill_value,
    ) -> np.ndarray:
        """Like :meth:`request` but with every element set to ``fill_value``."""
        out = self.request(key, shape, dtype)
        out[...] = fill_value
        return out

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    @property
    def allocations(self) -> int:
        """Count of fresh buffer allocations over the workspace's lifetime.

        Every :meth:`request` miss (new key or growth past current capacity)
        increments this; steady-state loops should stop incrementing once they
        have seen their widest batch, which is exactly what the training
        no-growth tests assert.
        """
        return self._allocations

    @property
    def high_water_nbytes(self) -> int:
        """Largest :attr:`nbytes` the pool has ever held (survives release)."""
        return self._high_water_nbytes

    def release(self) -> None:
        """Free every pooled buffer but keep the lifetime statistics.

        Use this to return steady-state scratch memory to the allocator while
        preserving :attr:`allocations` / :attr:`high_water_nbytes` for
        reporting (``Trainer.fit`` logs them per epoch).
        """
        self._buffers.clear()

    def clear(self) -> None:
        """Release every pooled buffer and reset the lifetime statistics."""
        self._buffers.clear()
        self._allocations = 0
        self._high_water_nbytes = 0

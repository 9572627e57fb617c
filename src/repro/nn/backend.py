"""Pluggable array-compute backends for the batched forward.

The autograd substrate (:mod:`repro.nn.tensor`) stays hard-wired to numpy.
The batched forward that trains and serves (:mod:`repro.batch.training`)
routes its scratch allocations and its two heavy kernels (the convolution's
im2col gather and matmul) through the small protocol defined here, so a
backend can change them without touching the model code.  Two backends
register today:

``reference``
    Plain numpy at the model's own dtype (float64 by default), fresh
    allocations per batch.  Byte-preserves the behaviour the parity suite
    pins down; this is the default.
``fast``
    The same numpy kernels; it differs only in policy: float32 weights and
    activations when pinned (float64 final reduction on the serve path,
    float64 master weights in training) and scratch buffers pooled in a
    :class:`Workspace`.  ``tests/test_backend.py`` proves served
    probabilities stay within ``1e-5`` of the reference with identical
    predicted labels for every model variant.

Selection is layered: an explicit ``backend=`` argument beats the process
override installed with :func:`set_backend`, which beats the
``REPRO_BACKEND`` environment variable, which falls back to ``reference``.
Ambient selection (env var / :func:`set_backend`) swaps *kernels and
workspace pooling only*; a backend's dtype policy applies when a caller pins
it explicitly (for example ``PredictionService(..., backend="fast")`` or
``TrainingConfig(backend="fast")``), so exporting ``REPRO_BACKEND=fast``
never silently changes the numbers an existing float64 service — or an
existing training run — produces.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "ArrayBackend",
    "ReferenceBackend",
    "FastBackend",
    "Workspace",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the ambient backend for the process.
BACKEND_ENV_VAR = "REPRO_BACKEND"


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


class ArrayBackend:
    """Protocol + numpy reference implementation of the batched forward's kernels.

    Sub-classes override ``name`` and, optionally, individual kernels and the
    policy attributes:

    ``serve_dtype``
        Float dtype a :class:`~repro.serve.PredictionService` casts model
        weights to when this backend is pinned explicitly (``None`` keeps the
        model's own dtype).
    ``train_dtype``
        Float dtype the :class:`~repro.training.Trainer` runs activations and
        gradients in when this backend is pinned via
        ``TrainingConfig(backend=...)`` (``None`` keeps the model's own
        dtype).  Master weights stay float64 inside the optimizer regardless —
        the policy governs the compute graph only.
    ``reuse_workspace``
        Whether the batched forward should route scratch allocations through
        a :class:`Workspace`.

    Every kernel accepts an optional ``out=`` so callers can land results in
    workspace-backed buffers; when ``out`` is ``None`` a fresh array is
    allocated, which is how the reference backend byte-preserves the
    historical allocation-per-batch behaviour.
    """

    name: str = "abstract"
    serve_dtype: Optional[np.dtype] = None
    train_dtype: Optional[np.dtype] = None
    reuse_workspace: bool = False

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def scratch(
        self,
        workspace: Optional[Workspace],
        key: str,
        shape: Tuple[int, ...],
        dtype: Union[np.dtype, type],
    ) -> np.ndarray:
        """An uninitialised array, pooled when this backend reuses workspaces."""
        if workspace is not None and self.reuse_workspace:
            return workspace.request(key, shape, dtype)
        return np.empty(shape, dtype=dtype)

    def scratch_filled(
        self,
        workspace: Optional[Workspace],
        key: str,
        shape: Tuple[int, ...],
        dtype: Union[np.dtype, type],
        fill_value,
    ) -> np.ndarray:
        out = self.scratch(workspace, key, shape, dtype)
        out[...] = fill_value
        return out

    # ------------------------------------------------------------------ #
    # Kernels
    # ------------------------------------------------------------------ #
    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def conv_window_gather(
        self,
        padded: np.ndarray,
        window: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """im2col: ``(batch, length, ch)`` -> ``(batch, length - window + 1, window * ch)``.

        Column layout matches :func:`repro.nn.functional.conv1d` so a matmul
        against the flattened filter bank reproduces its output bit-for-bit.
        """
        batch, padded_length, channels = padded.shape
        out_length = padded_length - window + 1
        if out is None:
            out = np.empty((batch, out_length, window * channels), dtype=padded.dtype)
        for offset in range(window):
            out[:, :, offset * channels:(offset + 1) * channels] = (
                padded[:, offset:offset + out_length, :]
            )
        return out

    def __repr__(self) -> str:
        dtype = "model" if self.serve_dtype is None else np.dtype(self.serve_dtype).name
        return f"{type(self).__name__}(name={self.name!r}, serve_dtype={dtype})"


class ReferenceBackend(ArrayBackend):
    """Plain numpy at the model's own dtype — byte-preserves seed behaviour."""

    name = "reference"
    serve_dtype = None
    train_dtype = None
    reuse_workspace = False


class FastBackend(ReferenceBackend):
    """Float32 serve and train paths with workspace reuse.

    The kernels are the reference ones; this backend differs from
    ``reference`` only in policy (``serve_dtype``, ``train_dtype``,
    ``reuse_workspace``): weights and activations in float32 when pinned
    (half the bandwidth, sgemm instead of dgemm) and scratch buffers pooled
    across batches.  On the serve path the final combined-logits softmax
    still runs in float64 (:func:`repro.batch.batched_predict_probabilities`
    casts before the last reduction), keeping output probabilities within
    ``1e-5`` of the reference path.  On the training path the
    :class:`~repro.training.Trainer` keeps float64 *master* weights inside
    the optimizer and accumulates gradients in float64 at the parameter
    boundary, so only the forward/backward graph runs in float32 — see the
    parity contract in ``docs/architecture.md``.  Ambient ``fast`` (kernels
    and pooled workspaces, no dtype change) is bit-identical to
    ``reference``.
    """

    name = "fast"
    serve_dtype = np.dtype(np.float32)
    train_dtype = np.dtype(np.float32)
    reuse_workspace = True


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, ArrayBackend] = {}
_OVERRIDE: Optional[str] = None


def register_backend(backend: ArrayBackend, replace: bool = False) -> ArrayBackend:
    """Add a backend instance to the registry under ``backend.name``."""
    name = backend.name
    if not name or name == "abstract":
        raise ConfigurationError("backend must define a concrete name")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(f"backend '{name}' is already registered")
    _REGISTRY[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def _lookup(name: str) -> ArrayBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(available_backends())
        raise ConfigurationError(
            f"unknown compute backend '{name}'; available backends: {choices}"
        ) from None


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve a backend by name, falling back through the ambient layers.

    Order: explicit ``name`` argument, then the process override installed by
    :func:`set_backend`, then the ``REPRO_BACKEND`` environment variable,
    then ``reference``.  Unknown names raise
    :class:`~repro.exceptions.ConfigurationError` listing the choices.
    """
    if name is not None:
        return _lookup(name)
    if _OVERRIDE is not None:
        return _lookup(_OVERRIDE)
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return _lookup(env)
    return _lookup(ReferenceBackend.name)


def resolve_backend(
    backend: Union[None, str, ArrayBackend],
) -> ArrayBackend:
    """Accept a backend instance, a name, or ``None`` (ambient resolution)."""
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)


def set_backend(name: Optional[str]) -> Optional[str]:
    """Install (or clear, with ``None``) the process-wide backend override.

    Returns the previous override so callers can restore it; prefer the
    :func:`use_backend` context manager in tests.
    """
    global _OVERRIDE
    if name is not None:
        _lookup(name)  # fail fast on unknown names
    previous = _OVERRIDE
    _OVERRIDE = name
    return previous


class use_backend:
    """Context manager scoping a :func:`set_backend` override."""

    def __init__(self, name: Optional[str]) -> None:
        self._name = name
        self._previous: Optional[str] = None

    def __enter__(self) -> ArrayBackend:
        self._previous = set_backend(self._name)
        return get_backend()

    def __exit__(self, exc_type, exc, tb) -> None:
        set_backend(self._previous)


register_backend(ReferenceBackend())
register_backend(FastBackend())

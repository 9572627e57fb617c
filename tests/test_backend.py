"""Tests for the pluggable compute-backend layer (:mod:`repro.nn.backend`).

Three contracts are pinned here:

* **Registry semantics** — explicit name beats :func:`set_backend` override
  beats ``REPRO_BACKEND`` beats the ``reference`` default; unknown names
  raise :class:`~repro.exceptions.ConfigurationError` listing the choices.
* **Reference/ambient parity** — the default serve path is bit-identical
  whichever backend is ambient: ambient selection swaps kernels only, never
  numerics, so ``REPRO_BACKEND=fast`` cannot silently change answers.
* **Fast-path parity** — a service pinned to ``backend="fast"`` (float32
  weights, workspace reuse, float64 final reduction) stays within ``1e-5``
  of the float64 reference with identical predicted labels, for every
  encoder/aggregator/head variant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.pipeline import train_and_evaluate
from repro.nn.backend import (
    BACKEND_ENV_VAR,
    ArrayBackend,
    FastBackend,
    ReferenceBackend,
    Workspace,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.serve import PredictionService, batched_predict_probabilities

# Every aggregation/encoder/head combination the factories can build
# (mirrors tests/test_serve.py so both parity nets stay in sync).
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "reference" in names
        assert "fast" in names

    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        backend = get_backend()
        assert backend.name == "reference"
        assert backend.serve_dtype is None
        assert backend.reuse_workspace is False

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        assert "available backends" in message
        assert "reference" in message
        assert "fast" in message

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        assert get_backend().name == "fast"

    def test_env_var_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError):
            get_backend()

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        previous = set_backend("fast")
        try:
            assert get_backend().name == "fast"
        finally:
            set_backend(previous)

    def test_set_backend_rejects_unknown_eagerly(self):
        with pytest.raises(ConfigurationError):
            set_backend("bogus")

    def test_explicit_name_beats_override(self):
        with use_backend("fast"):
            assert get_backend("reference").name == "reference"

    def test_use_backend_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with use_backend("fast") as backend:
            assert backend.name == "fast"
            assert get_backend().name == "fast"
        assert get_backend().name == "reference"

    def test_resolve_backend_instance_passthrough(self):
        instance = FastBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend("reference").name == "reference"

    def test_register_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend(ReferenceBackend())

    def test_register_abstract_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend(ArrayBackend())

    def test_daemon_config_validates_backend(self):
        from repro.config import DaemonConfig

        DaemonConfig(backend="fast").validate()  # known name passes
        with pytest.raises(ConfigurationError):
            DaemonConfig(backend="bogus").validate()


# ---------------------------------------------------------------------- #
# Workspace
# ---------------------------------------------------------------------- #
class TestWorkspace:
    def test_same_key_reuses_buffer(self):
        ws = Workspace()
        first = ws.request("x", (4, 8), np.float64)
        second = ws.request("x", (2, 8), np.float64)
        assert first.base is second.base  # same pooled storage
        assert ws.num_buffers == 1

    def test_growth_is_geometric(self):
        ws = Workspace()
        ws.request("x", (10,), np.float64)
        ws.request("x", (11,), np.float64)  # must grow: at least doubles
        assert ws.nbytes >= 20 * 8
        before = ws.nbytes
        ws.request("x", (15,), np.float64)  # fits in doubled capacity
        assert ws.nbytes == before

    def test_distinct_dtypes_get_distinct_buffers(self):
        ws = Workspace()
        a = ws.request("x", (4,), np.float64)
        b = ws.request("x", (4,), np.float32)
        assert ws.num_buffers == 2
        assert a.dtype == np.float64 and b.dtype == np.float32

    def test_request_filled(self):
        ws = Workspace()
        out = ws.request_filled("pad", (3, 3), np.int64, -1)
        assert (out == -1).all()
        out[...] = 7
        again = ws.request_filled("pad", (3, 3), np.int64, -1)
        assert (again == -1).all()

    def test_clear_releases_buffers(self):
        ws = Workspace()
        ws.request("x", (4,), np.float64)
        ws.clear()
        assert ws.num_buffers == 0
        assert ws.nbytes == 0

    def test_allocation_stats_track_fresh_buffers_only(self):
        ws = Workspace()
        assert ws.allocations == 0 and ws.high_water_nbytes == 0
        ws.request("x", (10,), np.float64)
        assert ws.allocations == 1
        ws.request("x", (8,), np.float64)  # fits: no new allocation
        assert ws.allocations == 1
        ws.request("x", (11,), np.float64)  # grows: one more allocation
        assert ws.allocations == 2
        assert ws.high_water_nbytes == ws.nbytes

    def test_release_keeps_stats_clear_resets_them(self):
        ws = Workspace()
        ws.request("x", (16,), np.float64)
        high_water = ws.high_water_nbytes
        assert high_water >= 16 * 8
        ws.release()
        assert ws.num_buffers == 0 and ws.nbytes == 0
        # release() frees memory but keeps the lifetime accounting so
        # Trainer.fit can still report steady-state scratch usage.
        assert ws.allocations == 1 and ws.high_water_nbytes == high_water
        ws.clear()
        assert ws.allocations == 0 and ws.high_water_nbytes == 0

    def test_scratch_pools_only_for_reusing_backends(self):
        ws = Workspace()
        reference = get_backend("reference")
        fast = get_backend("fast")
        reference.scratch(ws, "k", (4,), np.float64)
        assert ws.num_buffers == 0  # reference never pools
        fast.scratch(ws, "k", (4,), np.float64)
        assert ws.num_buffers == 1


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #
class TestKernels:
    def test_conv_window_gather_matches_conv1d(self):
        # im2col + matmul must reproduce the autograd conv bit-for-bit.
        from repro import nn
        from repro.nn import functional as F

        rng = np.random.default_rng(1)
        conv = nn.Conv1d(4, 6, kernel_size=3, rng=rng)
        x = rng.standard_normal((2, 9, 4))
        expected = F.conv1d(nn.Tensor(x), conv.weight, conv.bias, padding=1).data

        backend = get_backend("reference")
        padded = np.zeros((2, 9 + 2, 4))
        padded[:, 1:10, :] = x
        col = backend.conv_window_gather(padded, window=3)
        w_mat = conv.weight.data.reshape(6, -1)
        got = backend.matmul(col, w_mat.T) + conv.bias.data
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------- #
# Serve-path parity
# ---------------------------------------------------------------------- #
class TestReferenceParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_explicit_reference_is_bit_identical(self, nyt_context, method_name):
        method, _ = train_and_evaluate(nyt_context, method_name)
        bags = nyt_context.test_encoded[:16]
        default = batched_predict_probabilities(method.model, bags)
        explicit = batched_predict_probabilities(
            method.model, bags, backend=get_backend("reference")
        )
        assert np.array_equal(default, explicit)

    def test_ambient_fast_keeps_float64_numerics(self, nyt_context, trained_pa_tmr):
        # Exporting REPRO_BACKEND=fast (here: the equivalent set_backend
        # override) must not change results: ambient selection swaps kernels
        # and enables workspace pooling, but the dtype policy only applies
        # when a caller pins the backend explicitly.
        model = trained_pa_tmr[0].model
        bags = nyt_context.test_encoded[:16]
        baseline = PredictionService.from_context(nyt_context, model).predict_encoded(bags)
        with use_backend("fast"):
            ambient_service = PredictionService.from_context(nyt_context, model)
            ambient = ambient_service.predict_encoded(bags)
        assert ambient_service.serve_dtype is None
        assert ambient_service.model is model  # no cast, no copy
        assert np.array_equal(ambient, baseline)


class TestFastServeParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_fast_close_to_reference_same_argmax(self, nyt_context, method_name):
        method, _ = train_and_evaluate(nyt_context, method_name)
        model = method.model
        bags = nyt_context.test_encoded[:24]
        reference = PredictionService.from_context(
            nyt_context, model, backend="reference"
        ).predict_encoded(bags)
        fast_service = PredictionService.from_context(nyt_context, model, backend="fast")
        fast = fast_service.predict_encoded(bags)

        assert fast.dtype == np.float64  # float64 final reduction
        np.testing.assert_allclose(fast, reference, atol=1e-5)
        assert np.array_equal(fast.argmax(axis=1), reference.argmax(axis=1))
        # The service casts a private copy; the caller's model is untouched.
        assert fast_service.model is not model
        assert fast_service.model.parameter_dtype() == np.float32
        assert model.parameter_dtype() == np.float64

    def test_fast_service_reuses_workspace_across_batches(self, nyt_context, trained_pa_tmr):
        service = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, backend="fast", batch_size=8
        )
        bags = nyt_context.test_encoded[:24]
        service.predict_encoded(bags)  # warm up: buffers sized to widest batch
        workspace = service._workspace()
        assert workspace is not None and workspace.num_buffers > 0
        nbytes_after_warmup = workspace.nbytes
        first = service.predict_encoded(bags)
        assert workspace.nbytes == nbytes_after_warmup  # steady state: no growth
        second = service.predict_encoded(bags)
        # Pooled buffers must never leak into results.
        assert np.array_equal(first, second)
        assert first.base is None or first.base not in (
            buffer for buffer in workspace._buffers.values()
        )

    def test_results_stable_across_repeated_calls(self, nyt_context, trained_pa_tmr):
        # Buffer reuse must not carry state between calls: single-bag answers
        # equal the same bag answered inside a larger batch.
        service = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, backend="fast", batch_size=4
        )
        bags = nyt_context.test_encoded[:8]
        batch_rows = service.predict_encoded(bags)
        for index in (0, 3, 7):
            single = service.predict_encoded([bags[index]])[0]
            np.testing.assert_allclose(single, batch_rows[index], atol=1e-6)

"""Tests for the compute-backend names and scratch pooling (:mod:`repro.nn.backend`).

Four contracts are pinned here:

* **Backend names** — ``reference`` and ``fast`` are the known names;
  ``None`` and ``reference`` keep the model's dtype; unknown names raise
  :class:`~repro.exceptions.ConfigurationError` listing the choices.
* **Reference parity** — a service pinned to ``backend="reference"`` is
  bit-identical to the unpinned default.
* **Fast-path parity** — a service pinned to ``backend="fast"`` (float32
  weights, float64 final reduction) stays within ``1e-5`` of the float64
  reference with identical predicted labels, for every
  encoder/aggregator/head variant.
* **Pooled scratch never leaks** — every service pools its per-batch
  scratch per thread, and the arrays it returns are never pool-backed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.pipeline import train_and_evaluate
from repro.nn.backend import BACKEND_DTYPES, Workspace, backend_dtype
from repro.serve import PredictionService, batched_predict_probabilities

# Every aggregation/encoder/head combination the factories can build
# (mirrors tests/test_serve.py so both parity nets stay in sync).
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


# ---------------------------------------------------------------------- #
# Backend names
# ---------------------------------------------------------------------- #
class TestRegistry:
    """The backend-name table."""

    def test_builtin_backends_registered(self):
        assert set(BACKEND_DTYPES) == {"reference", "fast"}
        assert backend_dtype("fast") == np.dtype(np.float32)

    def test_default_is_reference(self):
        assert backend_dtype(None) is None
        assert backend_dtype("reference") is None

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            backend_dtype("does-not-exist")
        message = str(excinfo.value)
        assert "available backends" in message
        assert "reference" in message
        assert "fast" in message

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


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #
class TestKernels:
    def test_conv_window_gather_matches_conv1d(self):
        # The pooled im2col + matmul must reproduce the autograd conv
        # bit-for-bit (gradients: tests/test_batch_training.py).
        from repro import nn
        from repro.batch.training import _conv1d_pooled
        from repro.nn import functional as F

        rng = np.random.default_rng(1)
        conv = nn.Conv1d(4, 6, kernel_size=3, padding=1, rng=rng)
        x = rng.standard_normal((2, 9, 4))
        expected = F.conv1d(nn.Tensor(x), conv.weight, conv.bias, padding=1).data
        got = _conv1d_pooled(conv, nn.Tensor(x), Workspace()).data
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
        service = PredictionService.from_context(
            nyt_context, method.model, backend="reference"
        )
        assert service.model is method.model  # no cast, no copy
        assert np.array_equal(service.predict_encoded(bags), default)


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


class TestPooledServe:
    def test_default_service_pools_per_thread(self, nyt_context, trained_pa_tmr):
        service = PredictionService.from_context(nyt_context, trained_pa_tmr[0].model)
        assert service.backend == "reference" and service.serve_dtype is None
        service.predict_encoded(nyt_context.test_encoded[:4])
        assert service._workspace() is service._workspace()
        assert service._workspace().num_buffers > 0

    def test_result_unchanged_by_next_call(self, nyt_context, trained_pa_tmr):
        # One chunk, then a call of other widths on the same thread's pool.
        service = PredictionService.from_context(
            nyt_context, trained_pa_tmr[0].model, batch_size=4
        )
        first = service.predict_encoded(nyt_context.test_encoded[:3])
        snapshot = first.copy()
        service.predict_encoded(nyt_context.test_encoded[3:20])
        assert np.array_equal(first, snapshot)

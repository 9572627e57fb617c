"""Backend-accelerated training (:mod:`repro.training.trainer` + fused optim).

Three contracts are pinned here:

* **Fused-optimizer bit-parity** — the in-place ``out=`` update sequences in
  :mod:`repro.nn.optim` produce exactly the bits of the historical
  per-temporary formulas, for SGD (momentum/weight-decay), Adam, Adagrad and
  gradient clipping.
* **Pinned-fast parity** — ``TrainingConfig(backend="fast")`` trains the
  forward/backward graph in float32 against float64 master weights; final
  losses and parameters match the reference within an explicit tolerance,
  with identical argmax predictions from the resulting checkpoint and
  identical early-stopping decisions, for every encoder/aggregator/head
  variant.
* **Steady-state allocation** — the trainer's pooled scratch allocates no
  new buffer after the first epoch, whatever the backend.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import nn
from repro.baselines.registry import build_method
from repro.batch import batched_predict_probabilities
from repro.config import TrainingConfig
from repro.core.model import NeuralREModel
from repro.exceptions import ConfigurationError
from repro.nn.module import Parameter
from repro.training.callbacks import EarlyStopping
from repro.training.trainer import Trainer

# Every aggregation/encoder/head combination the factories can build
# (mirrors tests/test_batch_training.py so both parity nets stay in sync).
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


def _build_model(context, method_name):
    """A freshly initialised model; identical across calls with equal seeds."""
    return build_method(
        method_name,
        vocab_size=context.vocab_size,
        num_relations=context.num_relations,
        model_config=context.model_config,
        training_config=context.training_config,
        kb=context.bundle.kb,
        entity_embeddings=context.entity_embeddings,
        seed=0,
    ).model


def _fit(context, method_name, bags, backend=None, epochs=2, early_stopping=None):
    model = _build_model(context, method_name)
    config = TrainingConfig(
        epochs=epochs,
        batch_size=7,
        learning_rate=0.01,
        optimizer="adam",
        seed=0,
        backend=backend,
    )
    trainer = Trainer(model, context.num_relations, config)
    result = trainer.fit(bags, early_stopping=early_stopping)
    return result, model, trainer


# ---------------------------------------------------------------------- #
# Fused optimizer steps
# ---------------------------------------------------------------------- #
def _make_params(rng):
    shapes = [(5, 3), (7,), (2, 4, 3)]
    return [Parameter(rng.standard_normal(shape)) for shape in shapes]


def _set_grads(params, rng):
    for param in params:
        param.grad = rng.standard_normal(param.data.shape)


def _legacy_decay(param, weight_decay):
    grad = param.grad
    if weight_decay:
        grad = grad + weight_decay * param.data
    return grad


class TestFusedOptimizerBitParity:
    """Fused in-place steps == the historical per-temporary formulas, bitwise."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_sgd(self, momentum, weight_decay):
        rng = np.random.default_rng(0)
        params = _make_params(rng)
        shadow = [p.data.copy() for p in params]
        velocity = [np.zeros_like(p.data) for p in params]
        optimizer = nn.SGD(params, lr=0.3, momentum=momentum, weight_decay=weight_decay)
        for _ in range(6):
            _set_grads(params, rng)
            for index, param in enumerate(params):
                grad = _legacy_decay(param, weight_decay)
                if momentum:
                    velocity[index] = momentum * velocity[index] + grad
                    update = velocity[index]
                else:
                    update = grad
                shadow[index] = shadow[index] - 0.3 * update
            optimizer.step()
            for param, expected in zip(params, shadow):
                np.testing.assert_array_equal(param.data, expected)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam(self, weight_decay):
        rng = np.random.default_rng(1)
        params = _make_params(rng)
        shadow = [p.data.copy() for p in params]
        m = [np.zeros_like(p.data) for p in params]
        v = [np.zeros_like(p.data) for p in params]
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.001
        optimizer = nn.Adam(params, lr=lr, weight_decay=weight_decay)
        for t in range(1, 7):
            _set_grads(params, rng)
            bc1 = 1.0 - beta1 ** t
            bc2 = 1.0 - beta2 ** t
            for index, param in enumerate(params):
                grad = _legacy_decay(param, weight_decay)
                m[index] = beta1 * m[index] + (1.0 - beta1) * grad
                v[index] = beta2 * v[index] + (1.0 - beta2) * grad * grad
                m_hat = m[index] / bc1
                v_hat = v[index] / bc2
                shadow[index] = shadow[index] - lr * m_hat / (np.sqrt(v_hat) + eps)
            optimizer.step()
            for param, expected in zip(params, shadow):
                np.testing.assert_array_equal(param.data, expected)

    def test_adagrad(self):
        rng = np.random.default_rng(2)
        params = _make_params(rng)
        shadow = [p.data.copy() for p in params]
        accum = [np.zeros_like(p.data) for p in params]
        lr, eps = 0.025, 1e-10
        optimizer = nn.Adagrad(params, lr=lr)
        for _ in range(6):
            _set_grads(params, rng)
            for index, param in enumerate(params):
                accum[index] = accum[index] + param.grad ** 2
                shadow[index] = shadow[index] - lr * param.grad / (
                    np.sqrt(accum[index]) + eps
                )
            optimizer.step()
            for param, expected in zip(params, shadow):
                np.testing.assert_array_equal(param.data, expected)

    def test_clip_grad_norm(self):
        rng = np.random.default_rng(3)
        params = _make_params(rng)
        _set_grads(params, rng)
        expected_norm = float(
            np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        )
        expected = [p.grad * (1.0 / expected_norm) for p in params]
        optimizer = nn.SGD(params, lr=0.1)
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == expected_norm
        for param, clipped in zip(params, expected):
            np.testing.assert_array_equal(param.grad, clipped)

    def test_steady_state_scratch(self):
        """Optimizer scratch stops allocating after the first step."""
        rng = np.random.default_rng(4)
        params = _make_params(rng)
        optimizer = nn.Adam(params, lr=0.001, weight_decay=0.01)
        _set_grads(params, rng)
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
        allocations = optimizer._scratch.allocations
        for _ in range(5):
            _set_grads(params, rng)
            optimizer.clip_grad_norm(1.0)
            optimizer.step()
        assert optimizer._scratch.allocations == allocations


# ---------------------------------------------------------------------- #
# Pinned fast backend: float32 graph, float64 masters, tolerance parity
# ---------------------------------------------------------------------- #
class TestPinnedFastParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_losses_params_and_argmax_match_reference(self, nyt_context, method_name):
        bags = nyt_context.train_encoded[:24]
        reference, ref_model, _ = _fit(nyt_context, method_name, bags)
        fast, fast_model, trainer = _fit(nyt_context, method_name, bags, backend="fast")
        assert trainer.activation_dtype == np.dtype(np.float32)
        # The trained model holds the float64 masters, not the f32 shadow.
        for param in fast_model.parameters():
            assert param.data.dtype == np.float64
        np.testing.assert_allclose(
            fast.epoch_losses, reference.epoch_losses, rtol=0, atol=2e-3
        )
        for expected, actual in zip(ref_model.parameters(), fast_model.parameters()):
            np.testing.assert_allclose(actual.data, expected.data, rtol=0, atol=2e-2)
        test_bags = nyt_context.test_encoded[:12]
        ref_probs = batched_predict_probabilities(ref_model, test_bags)
        fast_probs = batched_predict_probabilities(fast_model, test_bags)
        np.testing.assert_array_equal(
            fast_probs.argmax(axis=1), ref_probs.argmax(axis=1)
        )

    def test_checkpoint_roundtrip_preserves_predictions(self, nyt_context, tmp_path):
        bags = nyt_context.train_encoded[:24]
        _, model, _ = _fit(nyt_context, "pa_tmr", bags, backend="fast")
        model.save(tmp_path / "ckpt")
        restored = NeuralREModel.load(tmp_path / "ckpt")
        test_bags = nyt_context.test_encoded[:12]
        np.testing.assert_array_equal(
            batched_predict_probabilities(restored, test_bags),
            batched_predict_probabilities(model, test_bags),
        )

    def test_early_stopping_decisions_match_reference(self, nyt_context):
        bags = nyt_context.train_encoded[:24]
        for patience, min_delta in ((2, 0.0), (1, 100.0)):
            reference, _, _ = _fit(
                nyt_context, "pa_tmr", bags, epochs=4,
                early_stopping=EarlyStopping(patience=patience, min_delta=min_delta),
            )
            fast, _, _ = _fit(
                nyt_context, "pa_tmr", bags, backend="fast", epochs=4,
                early_stopping=EarlyStopping(patience=patience, min_delta=min_delta),
            )
            assert fast.stopped_early == reference.stopped_early
            assert fast.epochs_run == reference.epochs_run

    def test_per_bag_path_falls_back_to_model_dtype(self, nyt_context, caplog):
        bags = nyt_context.train_encoded[:8]
        model = _build_model(nyt_context, "pa_tmr")
        config = TrainingConfig(
            epochs=1, batch_size=4, seed=0, backend="fast", batched_training=False
        )
        with caplog.at_level(logging.WARNING, logger="repro.training"):
            trainer = Trainer(model, nyt_context.num_relations, config)
        assert trainer.activation_dtype == np.dtype(np.float64)
        assert any("dtype policy" in record.message for record in caplog.records)


# ---------------------------------------------------------------------- #
# Steady-state workspace allocation
# ---------------------------------------------------------------------- #
class TestWorkspaceSteadyState:
    def test_no_new_scratch_buffers_after_first_epoch(self, nyt_context):
        self._check_steady_state(nyt_context, backend="fast")

    def test_default_backend_pools_too(self, nyt_context):
        self._check_steady_state(nyt_context, backend=None)

    @staticmethod
    def _check_steady_state(nyt_context, backend):
        bags = nyt_context.train_encoded[:24]
        model = _build_model(nyt_context, "pa_tmr")
        config = TrainingConfig(
            epochs=1, batch_size=7, seed=0, backend=backend, shuffle=False
        )
        trainer = Trainer(model, nyt_context.num_relations, config)
        trainer.fit(bags)
        stats = trainer.workspace_stats()
        assert stats["allocations"] > 0
        trainer.fit(bags)  # identical second epoch (shuffle=False)
        after = trainer.workspace_stats()
        assert after["allocations"] == stats["allocations"]
        assert after["nbytes"] == stats["nbytes"]
        assert after["high_water_nbytes"] == stats["high_water_nbytes"]


# ---------------------------------------------------------------------- #
# Logging and config validation
# ---------------------------------------------------------------------- #
class TestTrainerLogging:
    def test_epoch_log_names_backend_and_dtypes(self, nyt_context, caplog):
        bags = nyt_context.train_encoded[:8]
        with caplog.at_level(logging.DEBUG, logger="repro.training"):
            _fit(nyt_context, "pa_tmr", bags, backend="fast", epochs=1)
        messages = [record.getMessage() for record in caplog.records]
        epoch_lines = [m for m in messages if "mean loss" in m]
        assert epoch_lines, f"no epoch log line found in {messages}"
        assert "backend=fast" in epoch_lines[0]
        assert "params=float64" in epoch_lines[0]
        assert "activations=float32" in epoch_lines[0]
        assert "scratch=" in epoch_lines[0]

    def test_reference_epoch_log_reports_float64(self, nyt_context, caplog):
        bags = nyt_context.train_encoded[:8]
        with caplog.at_level(logging.DEBUG, logger="repro.training"):
            _fit(nyt_context, "pa_tmr", bags, backend="reference", epochs=1)
        epoch_lines = [
            record.getMessage() for record in caplog.records
            if "mean loss" in record.getMessage()
        ]
        assert "backend=reference" in epoch_lines[0]
        assert "activations=float64" in epoch_lines[0]


class TestTrainingConfigBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(backend="warp-drive").validate()

    def test_known_backends_accepted(self):
        for name in ("fast", "reference"):
            config = TrainingConfig(backend=name)
            config.validate()
            assert config.backend == name
        TrainingConfig().validate()

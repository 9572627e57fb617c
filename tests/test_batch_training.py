"""Batched-vs-per-bag *training* parity (:mod:`repro.batch.training`).

Mirrors the inference parity suite in ``tests/test_serve.py``: for every
encoder/aggregator/head combination the vectorized padded-batch training
forward must match the per-bag loop to float64 round-off — same batch and
epoch losses, and same parameters after every optimisation step — including
ragged batches, dropout (identical RNG stream consumption) and bags whose
entities are unknown to the knowledge base (entity id -1).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.baselines.registry import build_method
from repro.batch import batched_train_logits, supports_batched_training
from repro.batch.merging import merge_encoded_bags
from repro.batch.training import _conv1d_pooled, _pcnn_representations
from repro.config import TrainingConfig
from repro.encoders.pcnn import PCNNEncoder
from repro.exceptions import ModelError
from repro.nn import functional as F
from repro.nn.backend import Workspace
from repro.training.trainer import Trainer

# Every aggregation/encoder/head combination the factories can build.
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


def _fit(context, method_name, bags, batched, epochs=2, batch_size=7):
    model = _build_model(context, method_name)
    config = TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=0.01,
        optimizer="adam",
        seed=0,
        batched_training=batched,
    )
    trainer = Trainer(model, context.num_relations, config)
    result = trainer.fit(bags)
    return result, [param.data.copy() for param in model.parameters()], trainer


class TestBatchedTrainingParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_fit_matches_per_bag(self, nyt_context, method_name):
        # batch_size 7 over 24 bags -> a ragged final batch in every epoch.
        bags = nyt_context.train_encoded[:24]
        per_bag, per_bag_params, _ = _fit(nyt_context, method_name, bags, batched=False)
        batched, batched_params, trainer = _fit(nyt_context, method_name, bags, batched=True)
        assert trainer._batched, "batched path was not engaged"
        np.testing.assert_allclose(
            batched.batch_losses, per_bag.batch_losses, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            batched.epoch_losses, per_bag.epoch_losses, rtol=0, atol=1e-10
        )
        for expected, actual in zip(per_bag_params, batched_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_gradients_match_per_bag(self, nyt_context):
        """Gradient-level parity of one forward/backward, before any step."""
        bags = nyt_context.train_encoded[:12]
        labels = np.array([bag.label for bag in bags], dtype=np.int64)
        weights = np.ones(nyt_context.num_relations)
        weights[0] = 0.25
        grads = {}
        for batched in (False, True):
            model = _build_model(nyt_context, "pa_tmr")
            model.train()
            if batched:
                logits = batched_train_logits(model, bags)
            else:
                logits = nn.stack([model(bag, bag.label) for bag in bags], axis=0)
            F.cross_entropy(logits, labels, weight=weights).backward()
            grads[batched] = [
                param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
                for param in model.parameters()
            ]
        for expected, actual in zip(grads[False], grads[True]):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    def test_unknown_entity_id_minus_one(self, nyt_context):
        """Bags with KB-unknown entities (-1 -> zero MR vector) keep parity."""
        bags = [
            replace(bag, head_entity_id=-1) if index % 3 == 0 else bag
            for index, bag in enumerate(nyt_context.train_encoded[:12])
        ]
        bags[1] = replace(bags[1], tail_entity_id=-1)
        per_bag, per_bag_params, _ = _fit(nyt_context, "pa_tmr", bags, batched=False, epochs=1)
        batched, batched_params, _ = _fit(nyt_context, "pa_tmr", bags, batched=True, epochs=1)
        np.testing.assert_allclose(
            batched.batch_losses, per_bag.batch_losses, rtol=0, atol=1e-10
        )
        for expected, actual in zip(per_bag_params, batched_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_single_bag_batch(self, nyt_context):
        model = _build_model(nyt_context, "pa_tmr")
        model.train()
        bag = nyt_context.train_encoded[0]
        reference = _build_model(nyt_context, "pa_tmr")
        reference.train()
        batched = batched_train_logits(model, [bag])
        per_bag = reference(bag, bag.label)
        assert batched.shape == (1, nyt_context.num_relations)
        np.testing.assert_allclose(batched.data[0], per_bag.data, rtol=0, atol=1e-12)


class _PerBagOnlyModel(nn.Module):
    """A model the batched layer cannot understand (no base_model/aggregator)."""

    def __init__(self, num_relations: int) -> None:
        super().__init__()
        self.weights = nn.Parameter(np.zeros(num_relations))

    def forward(self, bag, relation_id=None):
        return self.weights * 1.0


class TestBatchedTrainingGuards:
    def test_empty_batch_rejected(self, nyt_context):
        model = _build_model(nyt_context, "pcnn_att")
        with pytest.raises(ModelError):
            batched_train_logits(model, [])

    def test_unsupported_model_rejected(self, nyt_context):
        model = _PerBagOnlyModel(nyt_context.num_relations)
        assert not supports_batched_training(model)
        with pytest.raises(ModelError):
            batched_train_logits(model, nyt_context.train_encoded[:2])

    def test_trainer_falls_back_to_per_bag(self, nyt_context):
        """An unsupported model still trains — through the per-bag loop."""
        model = _PerBagOnlyModel(nyt_context.num_relations)
        config = TrainingConfig(
            epochs=1, batch_size=4, learning_rate=0.01, optimizer="adam", seed=0
        )
        trainer = Trainer(model, nyt_context.num_relations, config)
        assert not trainer._batched
        result = trainer.fit(nyt_context.train_encoded[:8])
        assert result.epochs_run == 1
        assert not result.diverged

    def test_flag_disables_batched_path(self, nyt_context):
        model = _build_model(nyt_context, "pcnn_att")
        config = TrainingConfig(
            epochs=1, batch_size=4, learning_rate=0.01, optimizer="adam", seed=0,
            batched_training=False,
        )
        assert not Trainer(model, nyt_context.num_relations, config)._batched


class TestPooledPath:
    """The batched forward always pools its scratch in a ``Workspace``.

    Its pooled kernels must equal the module path bit for bit, and a
    workspace reused across batches of different shapes must never leak
    stale buffer contents into values or gradients.
    """

    @staticmethod
    def _conv_run(conv, x_data, upstream, pooled):
        conv.zero_grad()
        x = nn.Tensor(x_data.copy(), requires_grad=True)
        out = _conv1d_pooled(conv, x, Workspace()) if pooled else conv(x)
        out.backward(upstream)
        grads = [x.grad, conv.weight.grad, conv.bias.grad]
        return out.data.copy(), [grad.copy() for grad in grads]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv1d_pooled_matches_module(self, padding, dtype):
        rng = np.random.default_rng(padding)
        conv = nn.Conv1d(5, 7, kernel_size=3, padding=padding, rng=rng).cast_(dtype)
        x_data = rng.standard_normal((4, 9, 5)).astype(dtype)
        out_length = 9 + 2 * padding - 3 + 1
        upstream = rng.standard_normal((4, out_length, 7)).astype(dtype)
        expected, expected_grads = self._conv_run(conv, x_data, upstream, pooled=False)
        got, got_grads = self._conv_run(conv, x_data, upstream, pooled=True)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, expected)
        for actual, wanted in zip(got_grads, expected_grads):
            assert actual.dtype == wanted.dtype
            assert np.array_equal(actual, wanted)

    def test_pcnn_pooled_replay_matches_module(self, nyt_context):
        model = _build_model(nyt_context, "pa_tmr")
        encoder = model.base_model.encoder
        assert isinstance(encoder, PCNNEncoder)
        batch = merge_encoded_bags(nyt_context.train_encoded[:9])
        embedded = model.base_model.embedder(batch.merged).data
        upstream = np.random.default_rng(0).standard_normal(
            (batch.num_sentences, encoder.output_dim)
        )
        results = []
        for pooled in (False, True):
            model.zero_grad()
            x = nn.Tensor(embedded.copy(), requires_grad=True)
            if pooled:
                out = _pcnn_representations(encoder, x, batch, Workspace())
            else:
                out = encoder(x, batch.merged)
            out.backward(upstream)
            grads = [x.grad] + [param.grad for param in encoder.parameters()]
            results.append((out.data.copy(), [grad.copy() for grad in grads]))
        (expected, expected_grads), (got, got_grads) = results
        assert np.array_equal(got, expected)
        for actual, wanted in zip(got_grads, expected_grads):
            assert np.array_equal(actual, wanted)

    @pytest.mark.parametrize("method_name", ["pa_tmr", "cnn_att", "gru_att", "bgwa"])
    def test_reused_workspace_matches_fresh_per_call(self, nyt_context, method_name):
        bags = sorted(nyt_context.train_encoded[:40], key=lambda bag: bag.max_length)
        mid = len(bags) // 2
        # Wide, then narrow (the reused buffers still hold the wide batch's
        # values), then wide again with other bags.  Every batch mixes bag
        # widths, so some padded columns are never written by any bag.
        batches = [bags[-3:] + bags[:3], bags[3:6] + bags[mid:mid + 3], bags[-6:-3] + bags[6:9]]
        widths = [[bag.max_length for bag in batch] for batch in batches]
        assert max(widths[0]) > max(widths[1])
        assert all(min(w) < max(w) for w in widths)
        shared = Workspace()
        runs = []
        for workspace in (shared, None):
            model = _build_model(nyt_context, method_name)
            model.train()
            steps = []
            for batch in batches:
                model.zero_grad()
                logits = batched_train_logits(model, batch, workspace=workspace)
                labels = np.array([bag.label for bag in batch], dtype=np.int64)
                F.cross_entropy(logits, labels).backward()
                grads = [
                    None if param.grad is None else param.grad.copy()
                    for param in model.parameters()
                ]
                steps.append((logits.data.copy(), grads))
            runs.append(steps)
        assert shared.num_buffers > 0
        for (reused_logits, reused_grads), (fresh_logits, fresh_grads) in zip(*runs):
            assert np.array_equal(reused_logits, fresh_logits)
            for reused, fresh in zip(reused_grads, fresh_grads):
                assert (reused is None) == (fresh is None)
                if reused is not None:
                    assert np.array_equal(reused, fresh)

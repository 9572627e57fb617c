"""Parity and behaviour tests for the columnar corpus engine.

The contract: the vectorized store path — ``BagEncoder.encode_store``,
``merge_store_batch`` slicing, store-backed ``Trainer.fit`` and
``PredictionService.predict_encoded`` — must match the per-bag reference
path (``encode_all`` + object lists) to float round-off for every
encoder/aggregator/head variant, and the columnar npz format must round-trip
including files written in the seed-era per-bag layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines.registry import build_method
from repro.batch import (
    batched_predict_probabilities,
    batched_train_logits,
    merge_encoded_bags,
    merge_store_batch,
)
from repro.config import TrainingConfig
from repro.corpus.loader import BagEncoder, BatchIterator
from repro.corpus.store import CorpusStore, load_corpus
from repro.exceptions import DataError
from repro.nn import functional as F
from repro.serve import PredictionService
from repro.training.trainer import Trainer

# Every aggregation/encoder/head combination the factories can build.
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]

MERGED_FIELDS = (
    "token_ids", "head_position_ids", "tail_position_ids", "segment_ids", "mask",
)


@pytest.fixture(scope="module")
def encoder(nyt_bundle):
    return BagEncoder(
        nyt_bundle.vocabulary, max_sentence_length=20, max_sentences_per_bag=4
    )


@pytest.fixture(scope="module")
def legacy_bags(nyt_bundle, encoder):
    return encoder.encode_all(nyt_bundle.train.bags)


@pytest.fixture(scope="module")
def store(nyt_bundle, encoder):
    return encoder.encode_store(nyt_bundle.train.bags)


def _assert_bags_equal(actual, expected):
    assert actual.label == expected.label
    assert actual.relation_ids == expected.relation_ids
    assert actual.head_entity_id == expected.head_entity_id
    assert actual.tail_entity_id == expected.tail_entity_id
    for field in MERGED_FIELDS:
        np.testing.assert_array_equal(
            getattr(actual, field), getattr(expected, field), err_msg=field
        )
    np.testing.assert_array_equal(actual.head_type_ids, expected.head_type_ids)
    np.testing.assert_array_equal(actual.tail_type_ids, expected.tail_type_ids)


class TestEncodeStoreParity:
    def test_views_match_per_bag_encoding(self, store, legacy_bags):
        assert len(store) == len(legacy_bags)
        for index, expected in enumerate(legacy_bags):
            _assert_bags_equal(store.bag(index), expected)

    def test_offsets_are_consistent(self, store):
        assert store.num_sentences == int(store.bag_offsets[-1])
        assert store.num_tokens == int(store.sentence_offsets[-1])
        assert store.sentence_lengths.min() >= 1
        np.testing.assert_array_equal(
            store.sentence_counts,
            np.diff(store.bag_offsets),
        )

    def test_from_encoded_bags_round_trip(self, store, legacy_bags):
        rebuilt = CorpusStore.from_encoded_bags(legacy_bags)
        for name in (
            "token_ids", "head_position_ids", "tail_position_ids", "segment_ids",
            "sentence_offsets", "bag_offsets", "bag_widths", "labels",
            "head_entity_ids", "tail_entity_ids", "relation_ids",
            "relation_offsets", "head_type_ids", "head_type_offsets",
            "tail_type_ids", "tail_type_offsets",
        ):
            np.testing.assert_array_equal(
                getattr(rebuilt, name), getattr(store, name), err_msg=name
            )

    def test_sequence_protocol(self, store, legacy_bags):
        assert store[0].label == legacy_bags[0].label
        _assert_bags_equal(store[-1], legacy_bags[-1])
        sub = store[2:7]
        assert isinstance(sub, CorpusStore)
        assert len(sub) == 5
        for offset, expected in enumerate(legacy_bags[2:7]):
            _assert_bags_equal(sub.bag(offset), expected)
        picked = store[[5, 1, 3]]
        _assert_bags_equal(picked.bag(1), legacy_bags[1])
        from itertools import islice

        for view, expected in islice(zip(store, legacy_bags), 10):
            _assert_bags_equal(view, expected)

    def test_select_out_of_range_rejected(self, store):
        with pytest.raises(DataError):
            store.select(np.array([len(store)]))
        with pytest.raises(IndexError):
            store.bag(len(store))


class TestMergeStoreBatch:
    def test_matches_merge_encoded_bags(self, store, legacy_bags):
        rng = np.random.default_rng(7)
        for size in (1, 3, 17):
            indices = rng.choice(len(store), size=size, replace=False)
            from_store = merge_store_batch(store, indices)
            from_list = merge_encoded_bags([legacy_bags[int(i)] for i in indices])
            for field in MERGED_FIELDS:
                np.testing.assert_array_equal(
                    getattr(from_store.merged, field),
                    getattr(from_list.merged, field),
                    err_msg=field,
                )
            np.testing.assert_array_equal(from_store.offsets, from_list.offsets)
            np.testing.assert_array_equal(from_store.widths, from_list.widths)
            np.testing.assert_array_equal(from_store.labels, from_list.labels)
            np.testing.assert_array_equal(
                from_store.head_entity_ids, from_list.head_entity_ids
            )
            np.testing.assert_array_equal(
                from_store.head_type_ids, from_list.head_type_ids
            )
            np.testing.assert_array_equal(
                from_store.head_type_offsets, from_list.head_type_offsets
            )
            np.testing.assert_array_equal(
                from_store.tail_type_ids, from_list.tail_type_ids
            )

    def test_merge_accepts_store_directly(self, store, legacy_bags):
        sub = store[:6]
        from_store = merge_encoded_bags(sub)
        from_list = merge_encoded_bags(legacy_bags[:6])
        for field in MERGED_FIELDS:
            np.testing.assert_array_equal(
                getattr(from_store.merged, field), getattr(from_list.merged, field)
            )

    def test_empty_batch_rejected(self, store):
        with pytest.raises(DataError):
            merge_store_batch(store, np.array([], dtype=np.int64))
        with pytest.raises(DataError):
            merge_store_batch(store, np.array([len(store)]))


def _build_model(context, method_name):
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


def _fit(context, method_name, bags, batched=True, epochs=2, batch_size=7):
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
    return result, [param.data.copy() for param in model.parameters()]


class TestStoreTrainingParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_store_fit_matches_bag_list_fit(self, nyt_context, method_name):
        """Store-backed training equals object-list training to round-off."""
        sub_store = nyt_context.train_encoded[:24]
        assert isinstance(sub_store, CorpusStore)
        bag_list = sub_store.to_encoded_bags()
        from_store, store_params = _fit(nyt_context, method_name, sub_store)
        from_list, list_params = _fit(nyt_context, method_name, bag_list)
        np.testing.assert_allclose(
            from_store.batch_losses, from_list.batch_losses, rtol=0, atol=1e-12
        )
        for expected, actual in zip(list_params, store_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method_name", ["pa_tmr", "pcnn_att"])
    def test_store_fit_matches_per_bag_loop(self, nyt_context, method_name):
        """The full chain: store + batched forward vs per-bag graph loop."""
        sub_store = nyt_context.train_encoded[:21]
        from_store, store_params = _fit(nyt_context, method_name, sub_store)
        per_bag, per_bag_params = _fit(
            nyt_context, method_name, sub_store.to_encoded_bags(), batched=False
        )
        np.testing.assert_allclose(
            from_store.batch_losses, per_bag.batch_losses, rtol=0, atol=1e-10
        )
        for expected, actual in zip(per_bag_params, store_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)

    def test_gradients_match_from_store_batch(self, nyt_context):
        sub_store = nyt_context.train_encoded[:12]
        bags = sub_store.to_encoded_bags()
        labels = sub_store.labels
        weights = np.ones(nyt_context.num_relations)
        weights[0] = 0.25
        grads = {}
        for source_name, source in (("store", sub_store), ("list", bags)):
            model = _build_model(nyt_context, "pa_tmr")
            model.train()
            logits = batched_train_logits(model, source)
            F.cross_entropy(logits, labels, weight=weights).backward()
            grads[source_name] = [
                param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
                for param in model.parameters()
            ]
        for expected, actual in zip(grads["list"], grads["store"]):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=0)

    def test_per_bag_fallback_accepts_store(self, nyt_context):
        """A per-bag-only model still trains when handed a store."""

        class PerBagOnly(nn.Module):
            def __init__(self, num_relations):
                super().__init__()
                self.weights = nn.Parameter(np.zeros(num_relations))

            def forward(self, bag, relation_id=None):
                return self.weights * 1.0

        config = TrainingConfig(
            epochs=1, batch_size=4, learning_rate=0.01, optimizer="adam", seed=0
        )
        trainer = Trainer(PerBagOnly(nyt_context.num_relations), nyt_context.num_relations, config)
        assert not trainer._batched
        result = trainer.fit(nyt_context.train_encoded[:8])
        assert result.epochs_run == 1 and not result.diverged


class TestStoreServingParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_batched_predictions_match(self, nyt_context, method_name):
        model = _build_model(nyt_context, method_name)
        model.eval()
        sub_store = nyt_context.test_encoded[:24]
        bags = sub_store.to_encoded_bags()
        from_store = batched_predict_probabilities(model, sub_store)
        from_list = batched_predict_probabilities(model, bags)
        np.testing.assert_allclose(from_store, from_list, rtol=0, atol=0)
        single = np.stack([model.predict_probabilities(bag) for bag in bags])
        np.testing.assert_allclose(from_store, single, atol=1e-10)

    def test_service_accepts_store(self, nyt_context, trained_pa_tmr):
        method, _ = trained_pa_tmr
        service = PredictionService.from_context(
            nyt_context, method.model, batch_size=8
        )
        sub_store = nyt_context.test_encoded[:20]
        from_store = service.predict_encoded(sub_store)
        from_list = service.predict_encoded(sub_store.to_encoded_bags())
        np.testing.assert_allclose(from_store, from_list, rtol=0, atol=0)
        assert service.stats.requests == 40


class TestBatchIteratorOverStore:
    def test_yields_index_batches_covering_everything(self, store):
        iterator = BatchIterator(store, batch_size=5, shuffle=False)
        batches = list(iterator)
        assert all(isinstance(batch, np.ndarray) for batch in batches)
        covered = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(covered), np.arange(len(store)))
        assert len(iterator) == len(batches)

    def test_persistent_buffer_reshuffles_per_epoch(self, store):
        iterator = BatchIterator(
            store, batch_size=len(store), shuffle=True,
            rng=np.random.default_rng(3),
        )
        first = next(iter(iterator)).copy()
        second = next(iter(iterator)).copy()
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(np.sort(first), np.sort(second))

    def test_drop_last_guard(self, store):
        with pytest.raises(DataError):
            BatchIterator(store[:3], batch_size=5, drop_last=True)


class TestStorePersistence:
    def test_columnar_round_trip(self, store, tmp_path):
        path = tmp_path / "corpus.npz"
        store.save(path)
        loaded = CorpusStore.load(path)
        np.testing.assert_array_equal(loaded.token_ids, store.token_ids)
        np.testing.assert_array_equal(loaded.bag_offsets, store.bag_offsets)
        np.testing.assert_array_equal(loaded.relation_ids, store.relation_ids)
        _assert_bags_equal(loaded.bag(0), store.bag(0))

    def test_legacy_per_bag_file_rejected(self, legacy_bags, tmp_path):
        """The per-bag key layout of early releases is not read."""
        bag = legacy_bags[0]
        path = tmp_path / "legacy.npz"
        np.savez(
            path,
            num_bags=np.array([1], dtype=np.int64),
            **{
                "b0/token_ids": bag.token_ids,
                "b0/mask": bag.mask,
                "b0/meta": np.array(
                    [bag.label, bag.head_entity_id, bag.tail_entity_id], dtype=np.int64
                ),
            },
        )
        with pytest.raises(DataError, match="no format key"):
            load_corpus(path)

    def test_unknown_format_rejected(self, store, tmp_path):
        path = tmp_path / "future.npz"
        store.save(path)
        data = dict(np.load(path))
        data["format"] = np.array([99], dtype=np.int64)
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(DataError):
            CorpusStore.load(tmp_path / "bad.npz")

    def test_not_a_corpus_file_rejected(self, tmp_path):
        np.savez(tmp_path / "junk.npz", something=np.arange(3))
        with pytest.raises(DataError):
            load_corpus(tmp_path / "junk.npz")


class TestEncoderEdgeCases:
    """Truncation / clamping / empty-type behaviour, identical in both paths."""

    @staticmethod
    def _bag(tokens_list, positions, head_types=("person",), tail_types=("location",)):
        from repro.corpus.bags import Bag, SentenceExample

        return Bag(
            head_id=1,
            tail_id=2,
            head_name="h",
            tail_name="t",
            head_types=head_types,
            tail_types=tail_types,
            relation_ids={1},
            sentences=[
                SentenceExample(tokens=tokens, head_position=h, tail_position=t)
                for tokens, (h, t) in zip(tokens_list, positions)
            ],
        )

    @staticmethod
    def _encoder(nyt_bundle, **kwargs):
        return BagEncoder(nyt_bundle.vocabulary, **kwargs)

    def _both_paths(self, encoder, bags):
        legacy = encoder.encode_all(bags)
        views = encoder.encode_store(bags).to_encoded_bags()
        for view, expected in zip(views, legacy):
            _assert_bags_equal(view, expected)
        return legacy

    def test_mention_beyond_truncation_is_clamped(self, nyt_bundle):
        # 10 tokens, entities at positions 8 and 9, truncated to 4 tokens:
        # both mentions clamp to the last kept token.
        tokens = [f"w{i}" for i in range(10)]
        bag = self._bag([tokens], [(8, 9)])
        encoder = self._encoder(nyt_bundle, max_sentence_length=4)
        (encoded,) = self._both_paths(encoder, [bag])
        assert encoded.max_length == 4
        assert encoded.mask.sum() == 4
        # Clamped mentions sit on the final token -> distance 0 there.
        assert encoded.head_position_ids[0, 3] == encoder.max_position_distance
        assert encoded.tail_position_ids[0, 3] == encoder.max_position_distance

    def test_position_clamping_at_max_distance(self, nyt_bundle):
        tokens = [f"w{i}" for i in range(30)]
        bag = self._bag([tokens], [(0, 0)])
        encoder = self._encoder(
            nyt_bundle, max_sentence_length=40, max_position_distance=5
        )
        (encoded,) = self._both_paths(encoder, [bag])
        assert encoded.head_position_ids.max() == 10  # 2 * max_distance
        assert (encoded.head_position_ids[0, 5:] == 10).all()

    def test_entity_at_sentence_boundary(self, nyt_bundle):
        tokens = ["first", "mid", "last"]
        bag = self._bag([tokens], [(0, 2)])
        encoder = self._encoder(nyt_bundle, max_sentence_length=10)
        (encoded,) = self._both_paths(encoder, [bag])
        np.testing.assert_array_equal(encoded.segment_ids[0], [0, 1, 1])

    def test_empty_type_bags_get_unknown_type(self, nyt_bundle):
        bag = self._bag(
            [["a", "b"]], [(0, 1)], head_types=(), tail_types=()
        )
        encoder = self._encoder(nyt_bundle, max_sentence_length=10)
        (encoded,) = self._both_paths(encoder, [bag])
        np.testing.assert_array_equal(encoded.head_type_ids, [0])
        np.testing.assert_array_equal(encoded.tail_type_ids, [0])
        # Mixed batch: empty and non-empty type bags in one store.
        other = self._bag([["c", "d"]], [(1, 0)])
        store = encoder.encode_store([bag, other])
        np.testing.assert_array_equal(store.head_type_ids[:1], [0])
        assert store.head_type_offsets.tolist() == [0, 1, 2]

    def test_single_token_sentences_pad_to_width_two(self, nyt_bundle):
        bag = self._bag([["solo"]], [(0, 0)])
        encoder = self._encoder(nyt_bundle, max_sentence_length=10)
        (encoded,) = self._both_paths(encoder, [bag])
        assert encoded.max_length == 2
        assert encoded.mask.tolist() == [[True, False]]


class TestTypeVocabularyBulk:
    def test_encode_array_matches_scalar(self):
        from repro.corpus.loader import TypeVocabulary

        types = TypeVocabulary()
        names = ["person", "location", "martian", "organization", "person"]
        np.testing.assert_array_equal(types.encode_array(names), types.encode(names))
        assert types.encode_array([]).size == 0
        # The >= 64-name path and the scalar path agree too.
        many = names * 20
        np.testing.assert_array_equal(
            types.encode_array(many), [types.type_to_id(n) for n in many]
        )

"""Shared padded-batch layer: one batched forward for training *and* serving.

Per-bag execution (``model(bag, label)`` in a loop during training,
``model.predict_probabilities`` in a loop at serving time) spends most of its
time in per-call numpy overhead on tiny arrays.  This package merges many
bags into one padded "superbag" and runs the expensive sentence encoding once
over all sentences, then evaluates the bag-level stages vectorized:

* :mod:`repro.batch.merging` — merge encoded bags into one padded batch;
* :mod:`repro.batch.training` — the one batched forward, with two entry
  points: :func:`batched_train_logits` (gold-label attention, graph
  recorded), used by :class:`repro.training.Trainer` for one
  forward/backward per mini-batch with per-bag-identical losses and
  gradients (``benchmarks/test_bench_train.py``); and
  :func:`batched_predict_probabilities` (every relation attends with its own
  query, under :func:`repro.nn.no_grad`), used by
  :class:`repro.serve.PredictionService` (``benchmarks/test_bench_serve.py``).
"""

from .merging import (
    MergedBagBatch,
    as_merged_batch,
    merge_encoded_bags,
    merge_store_batch,
)
from .training import (
    batched_predict_probabilities,
    batched_train_logits,
    supports_batched_training,
)

__all__ = [
    "MergedBagBatch",
    "as_merged_batch",
    "merge_encoded_bags",
    "merge_store_batch",
    "batched_predict_probabilities",
    "batched_train_logits",
    "supports_batched_training",
]

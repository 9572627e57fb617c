"""The batched forward over a padded batch of bags, for training and serving.

The per-bag path builds one small ``nn.Tensor`` graph per bag
(``model(bag, bag.label)``) and pays numpy call overhead on tiny arrays for
every one of them.  This module runs ONE forward for a whole batch: the bags
are merged along the sentence axis (:mod:`repro.batch.merging`), the
embedder/encoder run once over all sentences, and the bag-level stages
(selective attention, entity-type head, mutual-relation head, confidence
combination) are evaluated with padded batched ops whose values *and*
gradients match the per-bag graph to float64 round-off.

The same forward serves both paths:

* :func:`batched_train_logits` passes the gold labels, so selective
  attention uses each bag's gold-relation query, and records the graph the
  :class:`~repro.training.Trainer` back-propagates through;
* :func:`batched_predict_probabilities` passes no labels, so every relation
  attends over the bag with its own query (the prediction protocol of Lin
  et al., 2016), and runs under :func:`repro.nn.tensor.no_grad`, so no graph
  is kept and the pooling ops take their forward-only branch.

Parity is by construction (enforced by ``tests/test_batch_training.py`` and
``tests/test_serve.py``):

* padding slots carry exactly zero activations and exactly zero gradients,
  so padded sums equal the ragged per-bag sums and scatter-adds into shared
  parameters only ever add exact zeros for padding;
* embedded columns at or beyond each bag's own width are zeroed through the
  graph (per-bag arrays end at the bag's width, so there the convolution sees
  true zeros);
* the dropout mask for the merged ``(total_sentences, dim)`` representation
  matrix is drawn in one call, which consumes the module's RNG stream exactly
  like the sequential per-bag draws it replaces (numpy ``Generator.random``
  fills any requested shape from the bit stream in order), so batched and
  per-bag training agree even with dropout enabled.

Every per-batch scratch array (padded token matrices, masks, gather plans,
the convolution's im2col and gradient buffers) comes from a
:class:`~repro.nn.backend.Workspace`.  Callers that run many batches (the
:class:`~repro.training.Trainer`, :class:`~repro.serve.PredictionService`)
pass one workspace and stop allocating once they have seen their widest
batch; without one, each call pools into a fresh workspace of its own.  A
pooled buffer is only rewritten by the next call against the same
workspace, after the previous graph's backward has run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..core.model import NeuralREModel
from ..encoders.attention import AverageBagAggregator, SelectiveAttentionAggregator
from ..encoders.cnn import CNNEncoder
from ..encoders.gru import GRUEncoder
from ..encoders.pcnn import NUM_SEGMENTS as PCNN_NUM_SEGMENTS
from ..encoders.pcnn import PCNNEncoder, _align_segments
from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.backend import Workspace
from ..nn.tensor import Tensor, no_grad
from .merging import (
    BagBatchLike,
    MergedBagBatch,
    as_merged_batch,
    cnn_pooling_mask,
    mutual_relation_matrix,
    padded_slot_plan,
)


def supports_batched_training(model: object) -> bool:
    """Whether the batched forward can train and serve ``model``.

    The batched forward understands :class:`NeuralREModel` with any of the
    stock encoders (CNN, PCNN, GRU — with or without word attention) and
    aggregators (selective attention, average pooling).  Anything else —
    e.g. a custom per-bag model handed to :class:`repro.training.Trainer` —
    falls back to the per-bag loop (and is rejected by
    :func:`batched_predict_probabilities`).
    """
    return (
        isinstance(model, NeuralREModel)
        and isinstance(model.base_model.encoder, (CNNEncoder, PCNNEncoder, GRUEncoder))
        and isinstance(
            model.base_model.aggregator,
            (AverageBagAggregator, SelectiveAttentionAggregator),
        )
    )


def batched_train_logits(
    model: NeuralREModel,
    bags: BagBatchLike,
    workspace: Optional[Workspace] = None,
) -> Tensor:
    """Combined training logits of shape ``(num_bags, num_relations)``.

    ``bags`` may be a sequence of :class:`EncodedBag` objects, a columnar
    :class:`~repro.corpus.store.CorpusStore` (or sub-store), or an already
    assembled :class:`MergedBagBatch`.  Equivalent to
    ``nn.stack([model(bag, bag.label) for bag in bags])`` — same values and
    same parameter gradients up to float64 round-off — but computed as one
    vectorized graph, which is what makes training a hot path instead of a
    python loop (see ``benchmarks/test_bench_train.py``).

    Batch assembly, helper masks/index plans and the convolution's
    im2col/gradient scratch land in ``workspace`` (a fresh one when
    ``None``), so a caller passing the same workspace for every mini-batch
    reuses the buffers.  Run the backward before the next call against the
    same workspace.  The compute dtype follows the model's parameters —
    dtype policy is the :class:`~repro.training.Trainer`'s job, not this
    function's.
    """
    if len(bags) == 0:
        raise ModelError("batched training forward needs at least one bag")
    return _batched_logits(model, bags, workspace, gold_attention=True)


def batched_predict_probabilities(
    model: NeuralREModel,
    bags: BagBatchLike,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Relation probability distributions for many bags in one pass.

    Takes the same ``bags`` as :func:`batched_train_logits` and returns a
    float64 array of shape ``(num_bags, num_relations)`` equal (up to
    floating-point round-off) to stacking ``model.predict_probabilities(bag)``
    over ``bags``.  The model runs in eval mode (restored afterwards) under
    :func:`~repro.nn.tensor.no_grad`; the compute dtype follows the model's
    parameters, and the final softmax always runs in float64.  The returned
    array is never workspace-backed.
    """
    if len(bags) == 0:
        return np.zeros((0, model.num_relations))
    was_training = model.training
    if was_training:
        model.eval()
    try:
        with no_grad():
            logits = _batched_logits(model, bags, workspace, gold_attention=False)
            return F.softmax(Tensor(logits.data.astype(np.float64, copy=False))).data
    finally:
        if was_training:
            model.train(True)


def _batched_logits(
    model: NeuralREModel,
    bags: BagBatchLike,
    workspace: Optional[Workspace],
    *,
    gold_attention: bool,
) -> Tensor:
    """The one batched forward: combined logits ``(num_bags, num_relations)``.

    ``gold_attention`` picks the selective-attention protocol: each bag's
    gold-relation query (training) or every relation's own query
    (prediction).
    """
    if not supports_batched_training(model):
        raise ModelError(
            f"model {type(model).__name__} is not supported by the batched "
            "forward; use its per-bag forward"
        )
    if workspace is None:
        workspace = Workspace()
    batch = as_merged_batch(bags, workspace=workspace)
    representations = _sentence_representations(model, batch, workspace)
    re_logits = _aggregator_logits(
        model.base_model.aggregator, representations, batch,
        batch.labels if gold_attention else None, workspace,
    )
    type_logits = (
        _type_head_logits(model.type_head, batch, workspace)
        if model.type_head is not None
        else None
    )
    mr_logits = (
        model.mutual_relation_head.classifier(
            nn.tensor(mutual_relation_matrix(model.mutual_relation_head, batch))
        )
        if model.mutual_relation_head is not None
        else None
    )
    return model.combiner(re_logits, type_logits=type_logits, mr_logits=mr_logits)


# ---------------------------------------------------------------------- #
# Sentence encoding
# ---------------------------------------------------------------------- #
def _sentence_representations(
    model: NeuralREModel,
    batch: MergedBagBatch,
    workspace: Workspace,
) -> Tensor:
    """Encoded (and dropout-masked) sentence vectors: ``(total_sentences, dim)``."""
    base = model.base_model
    embedded = base.embedder(batch.merged)
    widths = batch.bag_widths
    within_width = np.arange(embedded.shape[1])[None, :] < widths[:, None]
    # Columns beyond a bag's own width hold embedded pad tokens whose position
    # embeddings are non-zero; the per-bag arrays end at the bag's width, so
    # those columns must be true zeros with zero gradient.
    mask_f = workspace.request(
        "train.width_mask", within_width.shape + (1,), embedded.dtype
    )
    mask_f[..., 0] = within_width  # bool write: exact 0.0/1.0, same as astype
    embedded = embedded * Tensor(mask_f)
    encoder = base.encoder
    if isinstance(encoder, CNNEncoder):
        representations = _cnn_representations(
            encoder, embedded, batch, widths, workspace
        )
    elif isinstance(encoder, PCNNEncoder):
        representations = _pcnn_representations(encoder, embedded, batch, workspace)
    else:
        # The merged bag's mask already excludes everything at or beyond each
        # bag's own width, so the per-bag GRU encoder runs unchanged with the
        # merged sentence axis as its batch.
        representations = encoder(embedded, batch.merged)
    return base.dropout(representations)


def _cnn_representations(
    encoder: CNNEncoder,
    embedded: Tensor,
    batch: MergedBagBatch,
    widths: np.ndarray,
    workspace: Workspace,
) -> Tensor:
    """CNN encoder forward restricted to each bag's own output length.

    The plain CNN pools over every convolution position whose window overlaps
    a real token; per bag that output is only ``bag_width`` positions long, so
    the merged pass must exclude the extra positions the wider batch
    introduces (they do not exist in the per-bag path).
    """
    convolved = _conv1d_pooled(encoder.conv, embedded, workspace)
    mask = cnn_pooling_mask(
        batch, widths, convolved.shape[1], encoder.window_size, encoder.conv.padding
    )
    return F.max_pool_sequence(convolved, mask=mask).tanh()


def _pcnn_representations(
    encoder: PCNNEncoder,
    embedded: Tensor,
    batch: MergedBagBatch,
    workspace: Workspace,
) -> Tensor:
    """PCNN forward with the convolution's scratch pooled across batches.

    Replays :meth:`PCNNEncoder.forward` exactly — conv, segment alignment,
    piecewise max pooling, tanh — with the conv going through
    :func:`_conv1d_pooled`, so values and gradients are bit-identical to the
    module path.  The merged bag's segment ids already exclude everything at
    or beyond each bag's own width.
    """
    convolved = _conv1d_pooled(encoder.conv, embedded, workspace)
    segments = _align_segments(
        batch.merged.segment_ids, convolved.shape[1], encoder.conv.padding
    )
    pooled = F.piecewise_max_pool(convolved, segments, num_segments=PCNN_NUM_SEGMENTS)
    return pooled.tanh()


def _conv1d_pooled(conv, x: Tensor, workspace: Workspace) -> Tensor:
    """``conv(x)`` with im2col and gradient scratch pooled across batches.

    The padded copy, im2col buffer, convolution output and both backward
    scratch arrays are the largest per-batch allocations of the whole
    training step; pooling them is most of the steady-state-zero-allocation
    story.  The op sequence mirrors :func:`repro.nn.functional.conv1d`
    exactly (zero-padded copy, window gather, matmul against the flattened
    filter bank, bias add; the transposed ops in backward), so outputs and
    gradients are bit-identical to the module path.
    """
    weight, bias, padding = conv.weight, conv.bias, conv.padding
    batch_rows, length, in_channels = x.shape
    out_channels, window, _ = weight.shape
    if padding > 0:
        padded = workspace.request_filled(
            "train.conv.padded",
            (batch_rows, length + 2 * padding, in_channels),
            x.dtype,
            0.0,
        )
        padded[:, padding:padding + length, :] = x.data
    else:
        padded = x.data
    out_length = padded.shape[1] - window + 1
    # im2col, in the column layout of repro.nn.functional.conv1d.
    col = workspace.request(
        "train.conv.col", (batch_rows, out_length, window * in_channels), padded.dtype
    )
    for offset in range(window):
        col[:, :, offset * in_channels:(offset + 1) * in_channels] = (
            padded[:, offset:offset + out_length, :]
        )
    w_mat = weight.data.reshape(out_channels, window * in_channels)
    out_data = np.matmul(
        col,
        w_mat.T,
        out=workspace.request(
            "train.conv.out", (batch_rows, out_length, out_channels), padded.dtype
        ),
    )
    if bias is not None:
        np.add(out_data, bias.data, out=out_data)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_w_mat = np.einsum(
            "blo,blk->ok",
            grad,
            col,
            out=workspace.request("train.conv.grad_w", w_mat.shape, w_mat.dtype),
        )
        weight._accumulate(grad_w_mat.reshape(weight.shape))
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 1)))
        grad_col = np.matmul(
            grad, w_mat, out=workspace.request("train.conv.grad_col", col.shape, col.dtype)
        )
        grad_padded = workspace.request_filled(
            "train.conv.grad_padded", padded.shape, padded.dtype, 0.0
        )
        for offset in range(window):
            grad_padded[:, offset:offset + out_length, :] += (
                grad_col[:, :, offset * in_channels:(offset + 1) * in_channels]
            )
        if padding > 0:
            grad_x = grad_padded[:, padding:padding + length, :]
        else:
            grad_x = grad_padded
        x._accumulate(grad_x)

    return Tensor._make(out_data, tuple(parents), backward)


# ---------------------------------------------------------------------- #
# Bag aggregation
# ---------------------------------------------------------------------- #
def _padded_slot_index(
    batch: MergedBagBatch,
    workspace: Workspace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather plan for the flat sentence axis: ``(gather, slot_mask)``.

    ``gather`` is a ``(num_bags, max_sentences)`` int array mapping each
    (bag, slot) to its flat sentence row; ``slot_mask`` marks real slots.
    Padding slots point at row 0 and are excluded everywhere by the mask, so
    their gradients are exactly zero before the scatter-add back to row 0.
    """
    bag_of_row, slot_of_row, slot_mask = padded_slot_plan(batch)
    gather = workspace.request_filled("train.gather", slot_mask.shape, np.int64, 0)
    gather[bag_of_row, slot_of_row] = np.arange(batch.num_sentences)
    return gather, slot_mask


def _aggregator_logits(
    aggregator,
    representations: Tensor,
    batch: MergedBagBatch,
    labels: Optional[np.ndarray],
    workspace: Workspace,
) -> Tensor:
    """Relation logits ``(num_bags, num_relations)`` for either aggregator.

    ``labels`` (one per bag) select the gold-relation attention of training;
    ``None`` selects prediction-time attention.
    """
    gather, slot_mask = _padded_slot_index(batch, workspace)
    if isinstance(aggregator, SelectiveAttentionAggregator) and labels is None:
        # Every relation r attends over the bag with its own query and is
        # scored against its own attended vector (Lin et al., 2016):
        # logit[b, r] = sum_s alpha[b, s, r] * (x_s . w_r + bias_r), which
        # equals classifying the attended vector because the alphas sum to 1.
        scores = (representations * aggregator.attention_diag).matmul(
            aggregator.relation_queries.T
        )
        alphas = F.masked_softmax(
            F.gather_rows(scores, gather), slot_mask[:, :, None], axis=1
        )
        sentence_logits = F.gather_rows(aggregator.classifier(representations), gather)
        return (alphas * sentence_logits).sum(axis=1)
    if isinstance(aggregator, SelectiveAttentionAggregator):
        # Every sentence is scored against its own bag's gold-relation query:
        # q_j = (x_j * diag) . r_{label(bag(j))}, then a per-bag softmax over
        # the sentence axis weighs the sentence vectors into one bag vector.
        sentence_labels = np.repeat(labels, batch.sentence_counts)
        queries = F.gather_rows(aggregator.relation_queries, sentence_labels)
        scores = (representations * aggregator.attention_diag * queries).sum(axis=1)
        padded_scores = F.gather_rows(scores, gather)
        alphas = F.masked_softmax(padded_scores, slot_mask, axis=-1)
        padded_reprs = F.gather_rows(representations, gather)
        bag_vectors = (padded_reprs * alphas.expand_dims(2)).sum(axis=1)
        return aggregator.classifier(bag_vectors)
    if isinstance(aggregator, AverageBagAggregator):
        mask_f = workspace.request(
            "train.slot_mask", slot_mask.shape + (1,), representations.dtype
        )
        mask_f[..., 0] = slot_mask
        padded_reprs = F.gather_rows(representations, gather) * Tensor(mask_f)
        # `astype(..., copy=False)` is the identity for the float64 reference
        # graph and keeps a float32 fast-training graph from being upcast by
        # this float64 1/count constant.
        inv_counts = (1.0 / batch.sentence_counts)[:, None].astype(
            representations.dtype, copy=False
        )
        means = padded_reprs.sum(axis=1) * inv_counts
        return aggregator.classifier(means)
    raise ModelError(
        f"the batched forward does not support aggregator {type(aggregator).__name__}"
    )


# ---------------------------------------------------------------------- #
# Entity-type head
# ---------------------------------------------------------------------- #
def _type_head_logits(
    type_head,
    batch: MergedBagBatch,
    workspace: Workspace,
) -> Tensor:
    """Vectorized :class:`EntityTypeHead` forward: ``(num_bags, R)``."""
    head_vectors = _mean_type_embeddings(
        type_head.type_embedding, batch.head_type_ids, batch.head_type_offsets,
        workspace, "train.types.head",
    )
    tail_vectors = _mean_type_embeddings(
        type_head.type_embedding, batch.tail_type_ids, batch.tail_type_offsets,
        workspace, "train.types.tail",
    )
    return type_head.classifier(nn.concatenate([head_vectors, tail_vectors], axis=1))


def _mean_type_embeddings(
    embedding,
    flat_ids: np.ndarray,
    offsets: np.ndarray,
    workspace: Workspace,
    key: str,
) -> Tensor:
    """Per-bag mean of type-embedding rows with gradients: ``(num_bags, kt)``.

    The ragged id column arrives flat with offsets; padding slots use id 0
    and are masked to exact zeros, so gradients scattered into row 0 are
    exact zeros too.  ``key`` keeps the head and tail calls on distinct
    pooled buffers — both id/mask arrays stay live until backward.
    """
    counts = np.diff(offsets)
    max_types = int(counts.max())
    mask = np.arange(max_types)[None, :] < counts[:, None]
    padded_ids = workspace.request_filled(
        key + ".ids", (counts.size, max_types), np.int64, 0
    )
    padded_ids[mask] = flat_ids
    embedded = embedding(padded_ids)
    mask_f = workspace.request(key + ".mask", mask.shape + (1,), embedded.dtype)
    mask_f[..., 0] = mask
    embedded = embedded * Tensor(mask_f)
    inv_counts = (1.0 / counts)[:, None].astype(embedded.dtype, copy=False)
    return embedded.sum(axis=1) * inv_counts

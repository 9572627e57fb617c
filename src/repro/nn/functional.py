"""Neural-network operations used by the relation-extraction models.

These free functions build on :class:`repro.nn.tensor.Tensor` and provide the
specific operations the paper's architecture needs: softmax heads, selective
attention over sentence bags, 1-D convolutions over token sequences, and the
piecewise max pooling of PCNN (Zeng et al., 2015).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, _unbroadcast, is_grad_enabled


# ---------------------------------------------------------------------- #
# Softmax family
# ---------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = s * (grad - sum(grad * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Used by selective attention when bags are padded to a common size.
    """
    mask = np.asarray(mask, dtype=bool)
    neg_inf = np.full_like(x.data, -1e30)
    masked_data = np.where(mask, x.data, neg_inf)
    shifted = masked_data - masked_data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted) * mask
    denom = exp.sum(axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    out_data = exp / denom

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Losses
# ---------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    ``weight`` optionally re-weights each class (length C); this mirrors the
    class-weighting used to counter the dominance of the NA relation.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits (batch, classes)")
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs.data[np.arange(n), targets]
    if weight is None:
        sample_weight = np.ones(n, dtype=logits.dtype)
    else:
        weight = np.asarray(weight, dtype=logits.dtype)
        sample_weight = weight[targets]
    total_weight = sample_weight.sum()
    # A batch whose samples all carry zero weight (e.g. only NA bags with the
    # NA class weighted to zero) must produce a zero loss with zero gradients
    # that still participates in the graph — dividing by the zero total would
    # poison the loss and every parameter gradient with NaN.
    denom = total_weight if total_weight > 0 else 1.0
    loss_value = -(picked * sample_weight).sum() / denom if total_weight > 0 else 0.0

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(log_probs.data)
        g[np.arange(n), targets] = -sample_weight / denom
        log_probs._accumulate(g * grad)

    return Tensor._make(np.asarray(loss_value), (log_probs,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs.data[np.arange(n), targets]
    loss_value = -picked.mean()

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(log_probs.data)
        g[np.arange(n), targets] = -1.0 / n
        log_probs._accumulate(g * grad)

    return Tensor._make(np.asarray(loss_value), (log_probs,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy on raw logits (used by the LINE objective)."""
    targets = np.asarray(targets, dtype=logits.dtype)
    x = logits.data
    # log(1 + exp(-|x|)) + max(x, 0) - x * t   (stable formulation)
    loss = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    loss_value = loss.mean()
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad * (sig - targets) / x.size)

    return Tensor._make(np.asarray(loss_value), (logits,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=pred.dtype)
    diff = pred - Tensor(target)
    return (diff * diff).mean()


# ---------------------------------------------------------------------- #
# Embedding lookup
# ---------------------------------------------------------------------- #
def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) for integer ``indices`` of any shape."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
        weight._accumulate(full)

    return Tensor._make(out_data, (weight,), backward)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``x`` along axis 0 for an integer index array of any shape.

    The padded-batch layer (:mod:`repro.batch`) uses this to scatter a flat
    ragged axis (all sentences of all bags) into ``(bag, slot)`` padded
    arrays, and to expand per-bag values to per-sentence rows.  Unlike
    :func:`embedding_lookup` the source may have any rank (including 1-D
    score vectors); duplicate indices accumulate their gradients.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = x.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        np.add.at(full, indices.reshape(-1), grad.reshape((indices.size,) + x.shape[1:]))
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Dropout
# ---------------------------------------------------------------------- #
def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    # One float64 uniform draw regardless of compute precision: the kept/
    # dropped *pattern* must be a pure function of the generator stream so a
    # float32 (fast-training) forward drops exactly the same units as the
    # float64 reference run it is parity-checked against.  Only the mask is
    # cast down, so the scaled multiply still runs in the input's precision.
    uniform = rng.random(x.shape)
    mask = (uniform >= p).astype(x.dtype) / (1.0 - p)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Convolution over token sequences
# ---------------------------------------------------------------------- #
def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 0) -> Tensor:
    """1-D convolution over a sequence.

    Parameters
    ----------
    x:
        Input of shape ``(batch, length, in_channels)``.
    weight:
        Filters of shape ``(out_channels, window, in_channels)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    padding:
        Zero padding added to both ends of the sequence.

    Returns
    -------
    Tensor of shape ``(batch, out_length, out_channels)`` where
    ``out_length = length + 2 * padding - window + 1``.
    """
    if x.ndim != 3:
        raise ValueError("conv1d expects (batch, length, in_channels) input")
    batch, length, in_channels = x.shape
    out_channels, window, w_in = weight.shape
    if w_in != in_channels:
        raise ValueError(
            f"weight in_channels {w_in} does not match input in_channels {in_channels}"
        )

    if padding > 0:
        padded = np.zeros((batch, length + 2 * padding, in_channels), dtype=x.dtype)
        padded[:, padding:padding + length, :] = x.data
    else:
        padded = x.data
    padded_length = padded.shape[1]
    out_length = padded_length - window + 1
    if out_length <= 0:
        raise ValueError(
            f"sequence of length {length} (padding={padding}) too short for window {window}"
        )

    # im2col: (batch, out_length, window * in_channels)
    col = np.empty((batch, out_length, window * in_channels), dtype=padded.dtype)
    for offset in range(window):
        col[:, :, offset * in_channels:(offset + 1) * in_channels] = (
            padded[:, offset:offset + out_length, :]
        )
    w_mat = weight.data.reshape(out_channels, window * in_channels)
    out_data = col @ w_mat.T
    if bias is not None:
        out_data = out_data + bias.data

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, out_length, out_channels)
        grad_w_mat = np.einsum("blo,blk->ok", grad, col)
        weight._accumulate(grad_w_mat.reshape(weight.shape))
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 1)))
        grad_col = grad @ w_mat  # (batch, out_length, window*in_channels)
        grad_padded = np.zeros_like(padded)
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
# Pooling
# ---------------------------------------------------------------------- #
def max_pool_sequence(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Max-pool a sequence representation over the time axis.

    ``x`` has shape ``(batch, length, channels)``; the result has shape
    ``(batch, channels)``.  ``mask`` (batch, length) marks valid positions.
    """
    data = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(data.max(axis=1) if mask is None else _masked_max(data, mask))
    if mask is not None:
        data = np.where(mask[:, :, None], data, -1e30)
    argmax = data.argmax(axis=1)  # (batch, channels)
    batch, length, channels = x.shape
    batch_idx = np.arange(batch)[:, None]
    chan_idx = np.arange(channels)[None, :]
    out_data = x.data[batch_idx, argmax, chan_idx]
    if mask is not None:
        # Sentences with no valid position pool to zero.
        any_valid = mask.any(axis=1)
        out_data = np.where(any_valid[:, None], out_data, 0.0)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        g = grad
        if mask is not None:
            g = grad * mask.any(axis=1)[:, None]
        np.add.at(full, (batch_idx, argmax, chan_idx), g)
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def piecewise_max_pool(x: Tensor, segment_ids: np.ndarray, num_segments: int = 3) -> Tensor:
    """Piecewise max pooling used by PCNN (Zeng et al., 2015).

    Each token position is assigned to a segment (before the head entity,
    between the entities, after the tail entity); the sequence representation
    is max-pooled inside each segment and the per-segment vectors are
    concatenated.

    Parameters
    ----------
    x:
        Tensor of shape ``(batch, length, channels)``.
    segment_ids:
        Integer array of shape ``(batch, length)`` with values in
        ``[0, num_segments)``; negative values mark padding positions.

    Returns
    -------
    Tensor of shape ``(batch, num_segments * channels)``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    batch, length, channels = x.shape
    if segment_ids.shape != (batch, length):
        raise ValueError("segment_ids must have shape (batch, length)")
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(np.concatenate(
            [_masked_max(x.data, segment_ids == seg) for seg in range(num_segments)],
            axis=1,
        ))

    pooled_parts = []
    argmax_parts = []
    valid_parts = []
    batch_idx = np.arange(batch)[:, None]
    chan_idx = np.arange(channels)[None, :]
    for seg in range(num_segments):
        seg_mask = segment_ids == seg
        masked = np.where(seg_mask[:, :, None], x.data, -1e30)
        argmax = masked.argmax(axis=1)
        pooled = x.data[batch_idx, argmax, chan_idx]
        any_valid = seg_mask.any(axis=1)
        pooled = np.where(any_valid[:, None], pooled, 0.0)
        pooled_parts.append(pooled)
        argmax_parts.append(argmax)
        valid_parts.append(any_valid)
    out_data = np.concatenate(pooled_parts, axis=1)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        for seg in range(num_segments):
            g = grad[:, seg * channels:(seg + 1) * channels]
            g = g * valid_parts[seg][:, None]
            np.add.at(full, (batch_idx, argmax_parts[seg], chan_idx), g)
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def _masked_max(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Forward-only max over axis 1 of ``data`` where ``mask`` holds.

    The pooling ops use this when nothing records their graph: a masked
    reduction yields the same values as the argmax/gather the backward
    needs (max is exact), and rows without a valid position pool to zero.
    """
    pooled = np.max(data, axis=1, where=mask[:, :, None], initial=-np.inf)
    pooled[~mask.any(axis=1)] = 0.0
    return pooled


# ---------------------------------------------------------------------- #
# Selective attention over a bag of sentence encodings
# ---------------------------------------------------------------------- #
def selective_attention_scores(
    sentence_reprs: Tensor,
    relation_query: Tensor,
    attention_diag: Tensor,
) -> Tensor:
    """Bilinear attention scores ``q_j = x_j A r`` for each sentence in a bag.

    Parameters
    ----------
    sentence_reprs:
        Tensor of shape ``(num_sentences, dim)``.
    relation_query:
        Query vector for the candidate relation, shape ``(dim,)``.
    attention_diag:
        Diagonal of the weighted bilinear matrix ``A``, shape ``(dim,)``.
    """
    weighted = sentence_reprs * attention_diag
    return weighted.matmul(relation_query)


def bag_attention_pool(sentence_reprs: Tensor, scores: Tensor) -> Tensor:
    """Weighted sum of sentence representations with softmax-normalised scores."""
    alphas = softmax(scores, axis=-1)
    return alphas.expand_dims(1).transpose(1, 0).matmul(sentence_reprs).squeeze()


def average_pool(sentence_reprs: Tensor) -> Tensor:
    """Average pooling across a bag — used when attention is disabled."""
    return sentence_reprs.mean(axis=0)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise vectors to unit L2 norm along ``axis``."""
    norm = (x * x).sum(axis=axis, keepdims=True) ** 0.5
    return x / (norm + eps)

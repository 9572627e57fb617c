"""Byte-identity of the graph kernels against their previous implementations.

The LINE step scatters its updates through one 1-D ``np.add.at`` at flat
table offsets, and CSR propagation sums its rows in cache-sized blocks.
Both are pure speed changes: the oracles below are the row-scatter LINE step
and the single-pass gather / weight / ``reduceat`` propagation kernels they
replaced, and every comparison is ``np.array_equal``, not a tolerance.
Cached LINE and propagation artifacts stay valid only under that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.propagation as propagation
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.line import LineConfig, LineEmbeddingTrainer, _sigmoid
from repro.graph.propagation import (
    _csr_matmat,
    hop_closure,
    propagate_embeddings,
    propagate_embeddings_incremental,
)
from repro.graph.proximity import EntityProximityGraph
from repro.utils.arrays import concat_ranges


# ---------------------------------------------------------------------- #
# Oracles: the kernels as they were before the fast paths
# ---------------------------------------------------------------------- #
class _RowScatterTrainer(LineEmbeddingTrainer):
    """LINE trainer whose step is the previous 2-D row-scatter update."""

    def _step(self, sources, targets, negatives, lr):
        loss1 = self._oracle_step_order(
            self.first_order, self.first_order, sources, targets, negatives, lr
        )
        loss2 = self._oracle_step_order(
            self.second_order, self.second_context, sources, targets, negatives, lr
        )
        return loss1, loss2

    def _oracle_step_order(self, vertex_table, context_table, sources, targets, negatives, lr):
        u = vertex_table[sources]
        v_pos = context_table[targets]
        v_neg = context_table[negatives]

        pos_scores = np.einsum("bd,bd->b", u, v_pos)
        neg_scores = np.einsum("bd,bkd->bk", u, v_neg)
        pos_sig = _sigmoid(pos_scores)
        neg_sig = _sigmoid(neg_scores)

        loss = -np.log(pos_sig + 1e-12).mean() - np.log(1.0 - neg_sig + 1e-12).sum(axis=1).mean()

        grad_pos = (pos_sig - 1.0)[:, None]
        grad_neg = neg_sig[:, :, None]

        d = vertex_table.shape[1]
        grad_u = grad_pos * v_pos + np.einsum("bk,bkd->bd", neg_sig, v_neg)
        grad_v_pos = grad_pos * u
        grad_v_neg = (grad_neg * u[:, None, :]).reshape(-1, d)

        context_indices = np.concatenate([targets, negatives.reshape(-1)])
        context_updates = np.concatenate([-lr * grad_v_pos, -lr * grad_v_neg])
        if vertex_table is context_table:
            np.add.at(
                vertex_table,
                np.concatenate([sources, context_indices]),
                np.concatenate([-lr * grad_u, context_updates]),
            )
        else:
            np.add.at(vertex_table, sources, -lr * grad_u)
            np.add.at(context_table, context_indices, context_updates)
        return float(loss)


def _oracle_csr_matmat(indptr, indices, values, matrix):
    n = indptr.size - 1
    out = np.zeros((n, matrix.shape[1]))
    if indices.size == 0:
        return out
    contributions = values[:, None] * matrix[indices]
    nonempty = indptr[1:] > indptr[:-1]
    out[nonempty] = np.add.reduceat(contributions, indptr[:-1][nonempty], axis=0)
    return out


def _oracle_row_sums(indptr, indices, weights, inverse_sqrt, current, rows):
    """The incremental path's per-layer gather / scale / reduceat block."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    flat = concat_ranges(starts, sizes)
    summed = np.zeros((rows.size, current.shape[1]))
    if flat.size:
        gathered = indices[flat]
        contributions = weights[flat][:, None] * (
            inverse_sqrt[gathered][:, None] * current[gathered]
        )
        local_starts = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=local_starts[1:])
        nonempty = sizes > 0
        summed[nonempty] = np.add.reduceat(contributions, local_starts[nonempty], axis=0)
    return summed


def _oracle_propagate(graph, base, num_layers=2, alpha=0.5):
    indptr, indices, weights = graph.csr_arrays()
    inverse_sqrt = 1.0 / np.sqrt(graph.degrees + 1.0)
    current = base
    for _ in range(num_layers):
        scaled = inverse_sqrt[:, None] * current
        smoothed = inverse_sqrt[:, None] * (
            _oracle_csr_matmat(indptr, indices, weights, scaled) + scaled
        )
        current = (1.0 - alpha) * smoothed + alpha * base
    norms = np.linalg.norm(current, axis=1, keepdims=True)
    return current / np.where(norms == 0.0, 1.0, norms)


def _oracle_incremental(graph, base, previous, changed, num_layers=2, alpha=0.5):
    affected = hop_closure(graph, changed, num_layers)
    layer_rows = [affected]
    for _ in range(num_layers - 1):
        layer_rows.append(hop_closure(graph, layer_rows[-1], 1))
    layer_rows.reverse()
    indptr, indices, weights = graph.csr_arrays()
    inverse_sqrt = 1.0 / np.sqrt(graph.degrees + 1.0)
    current = base.copy()
    for rows in layer_rows:
        summed = _oracle_row_sums(indptr, indices, weights, inverse_sqrt, current, rows)
        scaled_rows = inverse_sqrt[rows][:, None] * current[rows]
        smoothed = inverse_sqrt[rows][:, None] * (summed + scaled_rows)
        current[rows] = (1.0 - alpha) * smoothed + alpha * base[rows]
    block = current[affected]
    norms = np.linalg.norm(block, axis=1, keepdims=True)
    out = previous.copy()
    out[affected] = block / np.where(norms == 0.0, 1.0, norms)
    return out, affected


# ---------------------------------------------------------------------- #
# Graphs
# ---------------------------------------------------------------------- #
def _random_graph(seed: int, num_entities: int, num_pairs: int, hub_leaves: int = 0):
    """A random co-occurrence graph, optionally with one hub of ``hub_leaves``
    neighbours (a CSR row longer than a propagation block)."""
    rng = np.random.default_rng(seed)
    names = np.array([f"e{i:04d}" for i in range(num_entities)])
    heads = rng.integers(0, num_entities, num_pairs)
    tails = rng.integers(0, num_entities, num_pairs)
    if hub_leaves:
        leaves = rng.choice(np.arange(1, num_entities), size=hub_leaves, replace=False)
        heads = np.concatenate([heads, np.zeros(hub_leaves, dtype=np.int64)])
        tails = np.concatenate([tails, leaves])
    mentions = rng.integers(1, 6, heads.size)
    return EntityProximityGraph.from_pair_arrays(
        names[np.repeat(heads, mentions)], names[np.repeat(tails, mentions)]
    )


@pytest.fixture(scope="module")
def line_graph():
    return _random_graph(0, num_entities=150, num_pairs=700)


# ---------------------------------------------------------------------- #
# LINE
# ---------------------------------------------------------------------- #
def _line_config():
    return LineConfig(
        embedding_dim=16,
        negative_samples=3,
        epochs=3,
        batch_edges=64,
        sample_chunk_edges=256,
        seed=5,
        finetune_epochs=2,
    )


def _assert_tables_equal(trainer, oracle):
    for name in ("first_order", "second_order", "second_context"):
        new, old = getattr(trainer, name), getattr(oracle, name)
        assert new.dtype == old.dtype, name
        assert np.array_equal(new, old), name


class TestLineByteIdentity:
    def test_train(self, line_graph):
        trainer = LineEmbeddingTrainer(line_graph, _line_config())
        oracle = _RowScatterTrainer(line_graph, _line_config())
        history = trainer.train()
        oracle_history = oracle.train()
        _assert_tables_equal(trainer, oracle)
        assert history == oracle_history
        assert trainer.first_order.dtype == np.float64

    def test_warm_start_finetune(self, line_graph):
        trained = LineEmbeddingTrainer(line_graph, _line_config())
        trained.train()
        rows = np.arange(0, line_graph.num_vertices, 2)
        dirty = np.array([1, 4, 9, 30])
        results = []
        for cls in (LineEmbeddingTrainer, _RowScatterTrainer):
            trainer = cls(line_graph, _line_config())
            trainer.warm_start(
                rows,
                trained.first_order[rows],
                trained.second_order[rows],
                trained.second_context[rows],
            )
            touched = trainer.finetune(dirty)
            results.append((trainer, touched))
        (trainer, touched), (oracle, oracle_touched) = results
        assert touched.size > dirty.size
        assert np.array_equal(touched, oracle_touched)
        _assert_tables_equal(trainer, oracle)


# ---------------------------------------------------------------------- #
# Propagation
# ---------------------------------------------------------------------- #
def _csr_with_empty_rows(seed: int, num_rows: int = 40, dim: int = 8):
    """Random CSR arrays whose empty rows include the first, the last and a
    run of consecutive rows, plus one long row."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 6, num_rows)
    sizes[[0, 1, 17, 18, 19, num_rows - 1]] = 0
    sizes[25] = 60
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = rng.integers(0, num_rows, indptr[-1])
    values = rng.random(indptr[-1])
    matrix = rng.standard_normal((num_rows, dim))
    return indptr, indices, values, matrix


# Block sizes in bytes: a few edges per block (many blocks, the long row
# spans several) and the module default (one block for these small inputs).
_BLOCKS = [8 * 8 * 4, 8 * 8 * 16, propagation._BLOCK_BYTES]


class TestCsrKernelByteIdentity:
    @pytest.mark.parametrize("block_bytes", _BLOCKS)
    def test_full_product_with_empty_rows(self, monkeypatch, block_bytes):
        monkeypatch.setattr(propagation, "_BLOCK_BYTES", block_bytes)
        indptr, indices, values, matrix = _csr_with_empty_rows(1)
        expected = _oracle_csr_matmat(indptr, indices, values, matrix)
        assert np.array_equal(_csr_matmat(indptr, indices, values, matrix), expected)

    @pytest.mark.parametrize("block_bytes", _BLOCKS)
    def test_row_subset_with_scale(self, monkeypatch, block_bytes):
        monkeypatch.setattr(propagation, "_BLOCK_BYTES", block_bytes)
        indptr, indices, values, matrix = _csr_with_empty_rows(2)
        scale = np.random.default_rng(3).random(matrix.shape[0]) + 0.5
        for rows in (
            np.array([0, 1, 17, 18, 39]),          # empty rows only
            np.array([2, 18, 25, 26, 39]),         # long row among empty ones
            np.arange(matrix.shape[0]),
            np.array([], dtype=np.int64),
        ):
            expected = _oracle_row_sums(indptr, indices, values, scale, matrix, rows)
            got = _csr_matmat(indptr, indices, values, matrix, rows, scale)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_no_edges(self):
        indptr = np.zeros(4, dtype=np.int64)
        matrix = np.ones((3, 2))
        out = _csr_matmat(indptr, np.empty(0, np.int64), np.empty(0), matrix)
        assert np.array_equal(out, np.zeros((3, 2)))


class TestPropagationByteIdentity:
    @pytest.fixture(scope="class")
    def hub_graph(self):
        # At dim 1024 a default block holds 128 edges; the hub row has 300.
        graph = _random_graph(11, num_entities=400, num_pairs=900, hub_leaves=300)
        indptr = graph.csr_arrays()[0]
        assert np.diff(indptr).max() > propagation._BLOCK_BYTES // (8 * 1024)
        base = np.random.default_rng(4).standard_normal((graph.num_vertices, 1024))
        return graph, base

    @pytest.fixture(scope="class")
    def small_graph(self):
        # A whole graph smaller than one block.
        graph = _random_graph(12, num_entities=30, num_pairs=40)
        base = np.random.default_rng(5).standard_normal((graph.num_vertices, 8))
        assert graph.csr_arrays()[1].size * 8 * 8 < propagation._BLOCK_BYTES
        return graph, base

    @pytest.mark.parametrize("which", ["hub_graph", "small_graph"])
    def test_full_propagation(self, request, which):
        graph, base = request.getfixturevalue(which)
        got = propagate_embeddings(graph, EntityEmbeddings(graph.vertices, base)).vectors
        assert np.array_equal(got, _oracle_propagate(graph, base))

    @pytest.mark.parametrize("which", ["hub_graph", "small_graph"])
    def test_incremental_propagation(self, request, which):
        graph, base = request.getfixturevalue(which)
        previous = np.random.default_rng(6).standard_normal(base.shape)
        for changed in (np.array([0]), np.array([3, 7]), np.arange(graph.num_vertices)):
            out, affected = propagate_embeddings_incremental(graph, base, previous, changed)
            expected, expected_affected = _oracle_incremental(graph, base, previous, changed)
            assert np.array_equal(affected, expected_affected)
            assert np.array_equal(out, expected)

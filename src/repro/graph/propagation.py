"""Graph-propagation refinement of the entity embeddings.

The paper's future-work section notes that the LINE objectives "may fail for
vertices that have few or even no edges" and proposes graph neural networks
as the remedy.  This module implements the light-weight version of that idea:
a parameter-free neighbourhood propagation (in the spirit of APPNP / LightGCN
layers) that mixes every entity's embedding with the degree-normalised
average of its neighbours' embeddings,

.. math::

    U^{(k+1)} = (1 - \\alpha) \\, \\hat{A} U^{(k)} + \\alpha U^{(0)},

where :math:`\\hat{A}` is the symmetrically normalised weighted adjacency of
the proximity graph and :math:`\\alpha` keeps a residual connection to the
original vectors.  Low-degree entities inherit information from their
neighbourhood while well-connected entities are barely changed, which is
exactly the failure mode the paper wants to fix.

The propagation operator is applied through the graph's CSR arrays — a
sparse matvec with O(edges) work per layer, summed in cache-sized blocks of
whole rows — so no dense n x n adjacency is ever materialised on the default
path.  The dense :func:`normalized_adjacency` builder is kept as the
executable reference the parity tests compare against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import GraphError
from ..utils.arrays import concat_ranges
from .embeddings import EntityEmbeddings
from .proximity import EntityProximityGraph


def normalized_adjacency(graph: EntityProximityGraph) -> np.ndarray:
    """Symmetrically normalised weighted adjacency matrix of the graph.

    Returns ``D^{-1/2} (A + I) D^{-1/2}`` with self-loops added so isolated
    rows stay well-defined.  The matrix is dense — O(n^2) memory — and only
    serves small-graph analysis and the dense-vs-CSR parity tests;
    :func:`propagate_embeddings` applies the same operator through the CSR
    arrays without ever building it.
    """
    n = graph.num_vertices
    adjacency = np.zeros((n, n))
    sources, targets, weights = graph.edge_arrays()
    adjacency[sources, targets] = weights
    adjacency[targets, sources] = weights
    adjacency += np.eye(n)
    degrees = adjacency.sum(axis=1)
    inverse_sqrt = 1.0 / np.sqrt(degrees)
    return adjacency * inverse_sqrt[:, None] * inverse_sqrt[None, :]


# Contribution bytes per block of the CSR kernel: small enough that a
# block's gathered rows stay in cache between the gather, the weighting and
# the row sums.
_BLOCK_BYTES = 1 << 20


def _csr_matmat(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    matrix: np.ndarray,
    rows: Optional[np.ndarray] = None,
    row_scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sparse-dense product ``(A @ (s * matrix))[rows]`` for a CSR-encoded ``A``.

    ``rows`` defaults to every row and ``row_scale`` (``s``, one factor per
    row of ``matrix``) to no scaling.  Edge ``(i, j)`` contributes
    ``A[i, j] * (s[j] * matrix[j])`` and each output row sums its
    contributions with one ``np.add.reduceat`` segment.  The rows are cut
    into blocks of whole rows holding about ``_BLOCK_BYTES`` of
    contributions, so the working set stays in cache.  No row's segment is
    ever split and each sum runs in CSR order, so the result is
    bit-identical to one reduceat over all the contributions.
    """
    dim = matrix.shape[1]
    if rows is None:
        starts, ends = indptr[:-1], indptr[1:]
    else:
        starts, ends = indptr[rows], indptr[rows + 1]
    sizes = ends - starts
    out = np.zeros((sizes.size, dim))
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    block_edges = max(1, _BLOCK_BYTES // (matrix.itemsize * dim))
    first = 0
    while first < sizes.size:
        # Rows [first, last) are the whole rows whose contributions fit in
        # one block; a row longer than a block gets a block of its own.
        last = int(np.searchsorted(offsets, offsets[first] + block_edges, side="right")) - 1
        last = max(last, first + 1)
        lo, hi = int(offsets[first]), int(offsets[last])
        if hi > lo:
            if rows is None:
                edges = slice(lo, hi)
            else:
                edges = concat_ranges(starts[first:last], sizes[first:last])
            neighbours = indices[edges]
            contributions = matrix[neighbours]
            if row_scale is not None:
                np.multiply(row_scale[neighbours][:, None], contributions, out=contributions)
            np.multiply(values[edges][:, None], contributions, out=contributions)
            nonempty = sizes[first:last] > 0
            out[first:last][nonempty] = np.add.reduceat(
                contributions, offsets[first:last][nonempty] - lo, axis=0
            )
        first = last
    return out


def propagate_embeddings(
    graph: EntityProximityGraph,
    embeddings: EntityEmbeddings,
    num_layers: int = 2,
    alpha: float = 0.5,
    renormalize: bool = True,
) -> EntityEmbeddings:
    """Smooth entity embeddings over the proximity graph.

    Parameters
    ----------
    graph:
        The finalised entity proximity graph.
    embeddings:
        Entity embeddings whose names are a superset of the graph's vertices
        (typically the output of :func:`train_entity_embeddings`).  A graph
        vertex without an embedding raises :class:`GraphError` naming the
        missing entity.
    num_layers:
        Number of propagation steps; 1-3 is typical, more over-smooths.
    alpha:
        Residual weight on the original embedding in every step
        (``alpha = 1`` returns the input unchanged, ``alpha = 0`` is pure
        neighbourhood averaging).
    renormalize:
        L2-normalise the propagated vectors, keeping them on the same scale
        as the LINE output.

    Returns
    -------
    A new :class:`EntityEmbeddings` over the graph's vertices.
    """
    if num_layers < 1:
        raise GraphError("num_layers must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise GraphError("alpha must be in [0, 1]")

    names = graph.vertices
    ids = embeddings.ids(names)
    missing = ids < 0
    if missing.any():
        name = names[int(np.flatnonzero(missing)[0])]
        raise GraphError(
            f"embeddings lack graph vertex '{name}'; propagate_embeddings needs "
            "a vector for every vertex of the proximity graph"
        )
    base = embeddings.vectors[ids]

    # \hat{A} X = D^{-1/2} (A + I) D^{-1/2} X, applied edge-wise: scale rows,
    # sparse matvec plus the self-loop term, scale rows again.
    indptr, indices, weights = graph.csr_arrays()
    inverse_sqrt = 1.0 / np.sqrt(graph.degrees + 1.0)

    current = base
    for _ in range(num_layers):
        scaled = inverse_sqrt[:, None] * current
        smoothed = inverse_sqrt[:, None] * (
            _csr_matmat(indptr, indices, weights, scaled) + scaled
        )
        current = (1.0 - alpha) * smoothed + alpha * base

    if renormalize:
        norms = np.linalg.norm(current, axis=1, keepdims=True)
        norms = np.where(norms == 0.0, 1.0, norms)
        current = current / norms
    return EntityEmbeddings(names, current)


def hop_closure(
    graph: EntityProximityGraph, vertex_ids: np.ndarray, hops: int
) -> np.ndarray:
    """Sorted vertex ids within ``hops`` edges of ``vertex_ids`` (inclusive).

    A CSR frontier expansion: each hop gathers the current frontier's
    neighbour segments and keeps the vertices not seen before, so the work
    is O(edges incident to the closure), not O(graph).
    """
    if hops < 0:
        raise GraphError("hops must be >= 0")
    indptr, indices, _ = graph.csr_arrays()
    closure = np.unique(np.asarray(vertex_ids, dtype=np.int64))
    frontier = closure
    for _ in range(hops):
        if frontier.size == 0:
            break
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        neighbours = indices[concat_ranges(starts, lengths)]
        fresh = np.setdiff1d(neighbours, closure)
        if fresh.size == 0:
            break
        closure = np.union1d(closure, fresh)
        frontier = fresh
    return closure


def propagate_embeddings_incremental(
    graph: EntityProximityGraph,
    base: np.ndarray,
    previous: np.ndarray,
    changed_rows: np.ndarray,
    num_layers: int = 2,
    alpha: float = 0.5,
    renormalize: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-run propagation restricted to the subgraph a change can reach.

    The streaming refresh path: ``base`` is the refreshed per-vertex input
    matrix over the (refinalized) graph's vertex space, ``previous`` the
    prior full propagation output re-mapped to the same space, and
    ``changed_rows`` every vertex whose base vector, CSR row or degree
    differs from the state ``previous`` was computed from (dirty vertices,
    the fine-tuned neighbourhood, new vertices).

    A vertex's layer-``L`` output depends on inputs at most ``L`` hops away,
    so only ``affected = hop_closure(changed_rows, num_layers)`` rows can
    change.  Layer ``k`` is evaluated on ``hop_closure(affected,
    num_layers - k)`` — exactly the rows whose layer-``k`` values feed the
    affected rows — with the same scale / reduceat-per-row-segment /
    residual arithmetic as :func:`propagate_embeddings`, in the same
    operation order, so every recomputed row is bit-equal to a full
    propagation over ``base`` and every untouched row keeps ``previous``
    verbatim.

    Returns ``(vectors, affected_rows)``.
    """
    if num_layers < 1:
        raise GraphError("num_layers must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise GraphError("alpha must be in [0, 1]")
    base = np.asarray(base, dtype=np.float64)
    previous = np.asarray(previous, dtype=np.float64)
    n = graph.num_vertices
    if base.ndim != 2 or base.shape[0] != n:
        raise GraphError(
            f"base matrix has shape {base.shape}; expected ({n}, dim) rows "
            "aligned with the graph's vertex space"
        )
    if previous.shape != base.shape:
        raise GraphError(
            f"previous propagation output has shape {previous.shape}, "
            f"expected {base.shape}"
        )
    changed = np.unique(np.asarray(changed_rows, dtype=np.int64))
    if changed.size == 0:
        return previous.copy(), changed
    if changed[0] < 0 or changed[-1] >= n:
        raise GraphError("changed_rows contains ids outside the vertex space")

    affected = hop_closure(graph, changed, num_layers)
    layer_rows = [affected]
    for _ in range(num_layers - 1):
        layer_rows.append(hop_closure(graph, layer_rows[-1], 1))
    layer_rows.reverse()  # layer_rows[k] = rows recomputed at layer k+1

    indptr, indices, weights = graph.csr_arrays()
    inverse_sqrt = 1.0 / np.sqrt(graph.degrees + 1.0)

    current = base.copy()
    for rows in layer_rows:
        summed = _csr_matmat(indptr, indices, weights, current, rows, inverse_sqrt)
        scaled_rows = inverse_sqrt[rows][:, None] * current[rows]
        smoothed = inverse_sqrt[rows][:, None] * (summed + scaled_rows)
        current[rows] = (1.0 - alpha) * smoothed + alpha * base[rows]

    block = current[affected]
    if renormalize:
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms = np.where(norms == 0.0, 1.0, norms)
        block = block / norms
    out = previous.copy()
    out[affected] = block
    return out, affected


def low_degree_entities(
    graph: EntityProximityGraph,
    max_degree: float = 1.0,
) -> list[str]:
    """Entities whose weighted degree is at most ``max_degree``.

    These are the vertices the paper expects plain LINE to handle poorly and
    the ones that benefit most from :func:`propagate_embeddings`.
    """
    names = np.asarray(graph.vertices)
    return names[graph.degrees <= max_degree].tolist()


def embedding_shift(
    before: EntityEmbeddings,
    after: EntityEmbeddings,
    name: str,
) -> float:
    """Cosine distance between an entity's embedding before and after propagation."""
    a, b = before.vector(name), after.vector(name)
    denominator = np.linalg.norm(a) * np.linalg.norm(b)
    if denominator == 0:
        return 1.0
    return float(1.0 - a @ b / denominator)

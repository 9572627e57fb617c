"""The entity proximity graph.

Vertices are entities; an edge connects two entities whose co-occurrence
count in the unlabeled corpus reaches a threshold.  Edge weights follow the
paper:

.. math::

    w_{ij} = \\frac{\\log(co_{ij})}{\\log(\\max_{k,l} co_{kl})}

Entities with similar semantics end up with similar neighbourhoods in this
graph, which is exactly what the second-order LINE objective preserves.

Internally the graph is integer-indexed and array-native: entity names are
encoded to ids once at :meth:`~EntityProximityGraph.finalize` time, raw pair
occurrences are aggregated with ``np.unique`` over pair-id arrays, and the
adjacency is stored in CSR form (``indptr`` / ``indices`` / per-edge weights)
with cached weighted degrees.  The string-keyed query API (``neighbors``,
``degree``, ``edge_weight``, ...) is a thin view over the id space; hot-path
consumers (the LINE trainer, propagation) use the array accessors
:meth:`edge_arrays`, :meth:`csr_arrays` and :attr:`degrees` directly.

Streaming updates: a finalized graph keeps accepting
:meth:`~EntityProximityGraph.add_cooccurrence` /
:meth:`~EntityProximityGraph.add_pair_arrays` deltas — they buffer exactly
like pre-finalize rows and are merged by
:meth:`~EntityProximityGraph.refinalize`, which re-derives the thresholded /
weighted / CSR state through the same code path as ``finalize()`` (so the
merged graph is bit-equal to a from-scratch build over the union corpus) and
reports the :class:`RefinalizeReport` dirty vertex set for targeted
downstream refreshes (alias tables, LINE fine-tuning, propagation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import GraphError
from ..utils.arrays import factorize_names

try:  # networkx is an optional convenience for analysis / export.
    import networkx as _nx
except ImportError:  # pragma: no cover - networkx ships with the environment
    _nx = None

#: On-disk format marker for :meth:`EntityProximityGraph.save`.  Version 2 is
#: the id-encoded layout (entity name table + integer pair ids); version 1
#: (three parallel string arrays) is still readable.
GRAPH_FORMAT_VERSION = 2


@dataclass(frozen=True)
class RefinalizeReport:
    """What changed when :meth:`EntityProximityGraph.refinalize` merged deltas.

    New vertices shift the name-sorted compact id space, so vertex *ids* are
    not stable across a merge (names are): ``old_to_new`` maps every
    pre-merge vertex id to its id in the refreshed graph.  ``dirty_ids`` /
    ``dirty_names`` (new id space) list every vertex with at least one
    incident kept edge that is new or changed weight — the set downstream
    consumers must refresh.  Because the paper weight
    ``w_ij = log1p(co_ij) / log1p(max co)`` renormalises *every* edge when
    the maximum kept count grows, ``max_count_changed`` rounds honestly make
    all vertices dirty.
    """

    dirty_ids: np.ndarray
    dirty_names: np.ndarray
    old_to_new: np.ndarray
    num_new_vertices: int
    max_count_changed: bool

    @property
    def num_dirty(self) -> int:
        return int(self.dirty_ids.size)


class EntityProximityGraph:
    """Weighted, undirected co-occurrence graph over entity names."""

    def __init__(self, min_cooccurrence: int = 1) -> None:
        if min_cooccurrence < 1:
            raise GraphError("min_cooccurrence must be >= 1")
        self.min_cooccurrence = min_cooccurrence
        # Pre-finalize buffers: raw pair occurrences are only accumulated
        # here; all aggregation happens vectorised in finalize().
        self._buffer_firsts: List[str] = []
        self._buffer_seconds: List[str] = []
        self._buffer_counts: List[int] = []
        self._buffer_arrays: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._finalized = False

        # Finalized state (filled by finalize()).
        self._names: np.ndarray = np.empty(0, dtype=np.str_)
        self._vertex_index: Dict[str, int] = {}
        self._edge_src: np.ndarray = np.empty(0, dtype=np.int64)
        self._edge_dst: np.ndarray = np.empty(0, dtype=np.int64)
        self._edge_weights: np.ndarray = np.empty(0, dtype=np.float64)
        self._edge_keys: np.ndarray = np.empty(0, dtype=np.int64)
        self._indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._indices: np.ndarray = np.empty(0, dtype=np.int64)
        self._csr_weights: np.ndarray = np.empty(0, dtype=np.float64)
        self._degrees: np.ndarray = np.empty(0, dtype=np.float64)
        self._vertex_raw_ids: np.ndarray = np.empty(0, dtype=np.int64)
        # Raw aggregated counts over *all* pairs (kept and sub-threshold),
        # preserved for cooccurrence() queries and save().
        self._raw_names: np.ndarray = np.empty(0, dtype=np.str_)
        self._raw_lo: np.ndarray = np.empty(0, dtype=np.int64)
        self._raw_hi: np.ndarray = np.empty(0, dtype=np.int64)
        self._raw_counts: np.ndarray = np.empty(0, dtype=np.int64)
        self._raw_keys: np.ndarray = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(first: str, second: str) -> Tuple[str, str]:
        return (first, second) if first <= second else (second, first)

    def add_cooccurrence(self, first: str, second: str, count: int = 1) -> None:
        """Accumulate ``count`` co-occurrences between two entities.

        On a finalized graph the pair is buffered as a pending delta: the
        finalized state keeps serving unchanged until :meth:`refinalize`
        merges the buffer.
        """
        if first == second:
            return
        if count <= 0:
            raise GraphError("co-occurrence count must be positive")
        self._buffer_firsts.append(first)
        self._buffer_seconds.append(second)
        self._buffer_counts.append(int(count))

    def add_pair_arrays(
        self,
        firsts: Sequence[str],
        seconds: Sequence[str],
        counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Accumulate co-occurrences for whole pair arrays at once.

        ``firsts[i]`` co-occurred with ``seconds[i]`` ``counts[i]`` times
        (every ``counts`` defaults to 1, i.e. one sentence per row).  Pairs
        need not be unique or alphabetically oriented — aggregation and
        canonicalisation happen vectorised in :meth:`finalize`.  Self-pairs
        are ignored, matching :meth:`add_cooccurrence`.  On a finalized
        graph the rows buffer as a pending delta for :meth:`refinalize`.
        """
        firsts = np.asarray(firsts, dtype=np.str_)
        seconds = np.asarray(seconds, dtype=np.str_)
        if firsts.shape != seconds.shape or firsts.ndim != 1:
            raise GraphError("firsts and seconds must be 1-D arrays of equal length")
        if counts is None:
            counts_array = np.ones(firsts.size, dtype=np.int64)
        else:
            counts_array = np.asarray(counts, dtype=np.int64)
            if counts_array.shape != firsts.shape:
                raise GraphError("counts must align with the pair arrays")
            if firsts.size and counts_array.min() <= 0:
                raise GraphError("co-occurrence count must be positive")
        if firsts.size == 0:
            return
        self._buffer_arrays.append((firsts, seconds, counts_array))

    def add_counts(self, counts: Mapping[Tuple[str, str], int]) -> None:
        """Accumulate a mapping of pair -> co-occurrence count."""
        if not counts:
            return
        items = list(counts.items())
        firsts = np.array([pair[0] for pair, _ in items], dtype=np.str_)
        seconds = np.array([pair[1] for pair, _ in items], dtype=np.str_)
        values = np.array([count for _, count in items], dtype=np.int64)
        keep = firsts != seconds  # self-pairs are ignored, as in add_cooccurrence
        self.add_pair_arrays(firsts[keep], seconds[keep], values[keep])

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[Tuple[str, str], int],
        min_cooccurrence: int = 1,
    ) -> "EntityProximityGraph":
        """Build and finalise a graph directly from co-occurrence counts."""
        graph = cls(min_cooccurrence=min_cooccurrence)
        graph.add_counts(counts)
        graph.finalize()
        return graph

    @classmethod
    def from_pair_arrays(
        cls,
        firsts: Sequence[str],
        seconds: Sequence[str],
        counts: Optional[Sequence[int]] = None,
        min_cooccurrence: int = 1,
    ) -> "EntityProximityGraph":
        """Build and finalise a graph from parallel pair arrays (bulk path)."""
        graph = cls(min_cooccurrence=min_cooccurrence)
        graph.add_pair_arrays(firsts, seconds, counts)
        graph.finalize()
        return graph

    @classmethod
    def from_sentences(
        cls,
        sentences: Iterable,
        min_cooccurrence: int = 1,
    ) -> "EntityProximityGraph":
        """Build a graph from :class:`UnlabeledSentence`-like objects.

        Any object exposing ``first_entity`` and ``second_entity`` works.
        """
        sentences = list(sentences)
        graph = cls(min_cooccurrence=min_cooccurrence)
        if sentences:
            firsts = np.array([s.first_entity for s in sentences], dtype=np.str_)
            seconds = np.array([s.second_entity for s in sentences], dtype=np.str_)
            keep = firsts != seconds
            graph.add_pair_arrays(firsts[keep], seconds[keep])
        graph.finalize()
        return graph

    # ------------------------------------------------------------------ #
    # Finalisation: names -> ids, np.unique aggregation, CSR assembly
    # ------------------------------------------------------------------ #
    def _gathered_buffers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        chunks = list(self._buffer_arrays)
        if self._buffer_firsts:
            chunks.append(
                (
                    np.array(self._buffer_firsts, dtype=np.str_),
                    np.array(self._buffer_seconds, dtype=np.str_),
                    np.array(self._buffer_counts, dtype=np.int64),
                )
            )
        if not chunks:
            empty = np.empty(0, dtype=np.str_)
            return empty, empty.copy(), np.empty(0, dtype=np.int64)
        firsts = np.concatenate([c[0] for c in chunks])
        seconds = np.concatenate([c[1] for c in chunks])
        counts = np.concatenate([c[2] for c in chunks])
        return firsts, seconds, counts

    def _clear_buffers(self) -> None:
        self._buffer_firsts = []
        self._buffer_seconds = []
        self._buffer_counts = []
        self._buffer_arrays = []

    @property
    def has_pending_updates(self) -> bool:
        """Whether any buffered pair rows are waiting for (re)finalisation."""
        return bool(self._buffer_firsts or self._buffer_arrays)

    def _install_raw(
        self,
        raw_names: np.ndarray,
        unique_keys: np.ndarray,
        raw_lo: np.ndarray,
        raw_hi: np.ndarray,
        pair_counts: np.ndarray,
    ) -> None:
        self._raw_names = raw_names
        self._raw_keys = unique_keys
        self._raw_lo = raw_lo
        self._raw_hi = raw_hi
        self._raw_counts = pair_counts

    def _finalize_from_raw(self) -> None:
        """Threshold, weight and CSR-assemble from the aggregated raw arrays.

        Shared by :meth:`finalize` and :meth:`refinalize` so an incremental
        merge is bit-equal to a from-scratch build of the same raw counts.
        """
        raw_names = self._raw_names
        raw_lo, raw_hi = self._raw_lo, self._raw_hi
        pair_counts = self._raw_counts

        kept = pair_counts >= self.min_cooccurrence
        if not kept.any():
            raise GraphError(
                "no entity pair reaches the co-occurrence threshold "
                f"({self.min_cooccurrence}); the proximity graph would be empty"
            )
        kept_lo, kept_hi, kept_counts = raw_lo[kept], raw_hi[kept], pair_counts[kept]

        # Paper: w_ij = log(co_ij) / log(max co).  We add-one smooth both logs
        # so that pairs with a single co-occurrence keep a strictly positive
        # weight (otherwise they could never be sampled by the LINE trainer).
        weights = np.log1p(kept_counts) / np.log1p(kept_counts.max())

        # Compact the vertex space to entities with at least one kept edge;
        # raw_names is sorted, so compact ids remain in name order.
        vertex_raw_ids = np.unique(np.concatenate([kept_lo, kept_hi]))
        self._names = raw_names[vertex_raw_ids]
        self._vertex_index = {name: i for i, name in enumerate(self._names.tolist())}
        self._vertex_raw_ids = vertex_raw_ids
        src = np.searchsorted(vertex_raw_ids, kept_lo)
        dst = np.searchsorted(vertex_raw_ids, kept_hi)
        n = vertex_raw_ids.size

        # Canonical edge list, sorted by (src, dst) — np.unique already
        # returned the pair keys in this order.
        self._edge_src = src
        self._edge_dst = dst
        self._edge_weights = weights
        self._edge_keys = src * np.int64(n) + dst

        # CSR over both directions (the graph is undirected).
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
        vals = np.concatenate([weights, weights])
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self._indptr[1:])
        self._indices = cols
        self._csr_weights = vals
        self._degrees = np.bincount(rows, weights=vals, minlength=n)

    def finalize(self) -> "EntityProximityGraph":
        """Apply the threshold, compute edge weights and freeze the graph."""
        if self._finalized:
            return self
        firsts, seconds, counts = self._gathered_buffers()
        keep = firsts != seconds  # bulk rows may still contain self-pairs
        firsts, seconds, counts = firsts[keep], seconds[keep], counts[keep]

        if firsts.size:
            # Encode names to ids once (name-sorted id space); orientation
            # and aggregation then run entirely on integers.
            raw_names, ids = factorize_names(np.concatenate([firsts, seconds]))
            first_ids = ids[: firsts.size]
            second_ids = ids[firsts.size:]
            # Canonical orientation: alphabetically smaller name first, which
            # in a name-sorted id space is simply the smaller id.
            lo_ids = np.minimum(first_ids, second_ids)
            hi_ids = np.maximum(first_ids, second_ids)
            # Aggregate duplicate pairs via their combined integer key.
            keys = lo_ids * np.int64(raw_names.size) + hi_ids
            unique_keys, key_inverse = np.unique(keys, return_inverse=True)
            pair_counts = np.bincount(
                key_inverse, weights=counts.astype(np.float64)
            ).astype(np.int64)
            raw_lo = unique_keys // raw_names.size
            raw_hi = unique_keys % raw_names.size
        else:
            raw_names = np.empty(0, dtype=np.str_)
            unique_keys = raw_lo = raw_hi = np.empty(0, dtype=np.int64)
            pair_counts = np.empty(0, dtype=np.int64)

        self._install_raw(raw_names, unique_keys, raw_lo, raw_hi, pair_counts)
        self._finalize_from_raw()
        self._clear_buffers()
        self._finalized = True
        return self

    def refinalize(self) -> RefinalizeReport:
        """Merge buffered delta pairs into the finalized graph.

        After :meth:`finalize`, the ``add_*`` methods keep buffering raw pair
        occurrences.  This merges them into the aggregated count arrays —
        O(existing pairs + delta): only the delta names are encoded, the
        existing sorted key array is re-based with a monotone remap and the
        new counts folded in by binary search — then re-derives the
        thresholded / weighted / CSR state through the *same* code path as
        :meth:`finalize`, so the merged graph is bit-equal to a from-scratch
        rebuild over the union corpus while skipping the dominant
        per-occurrence string encode.

        Returns a :class:`RefinalizeReport` naming the dirty vertex set and
        the old-to-new vertex id remap.  A kept edge is *dirty* when it is
        new or its weight changed bit-wise; the weight diff automatically
        captures the global renormalisation when the maximum kept count
        grows (then every vertex is dirty and ``max_count_changed`` is set).
        """
        if not self._finalized:
            raise GraphError("refinalize() requires a finalized graph; call finalize() first")
        firsts, seconds, counts = self._gathered_buffers()
        keep = firsts != seconds
        firsts, seconds, counts = firsts[keep], seconds[keep], counts[keep]

        old_names = self._names
        if firsts.size == 0:
            self._clear_buffers()
            return RefinalizeReport(
                dirty_ids=np.empty(0, dtype=np.int64),
                dirty_names=old_names[:0].copy(),
                old_to_new=np.arange(old_names.size, dtype=np.int64),
                num_new_vertices=0,
                max_count_changed=False,
            )

        # Encode only the delta names and grow the raw name table by a sorted
        # merge; both tables are name-sorted so the old->new raw-id remap is
        # monotone (it preserves the sort order of the existing pair keys).
        delta_names, delta_codes = factorize_names(np.concatenate([firsts, seconds]))
        raw_names = np.union1d(self._raw_names, delta_names)
        old_raw_pos = np.searchsorted(raw_names, self._raw_names)
        delta_pos = np.searchsorted(raw_names, delta_names)
        first_ids = delta_pos[delta_codes[: firsts.size]]
        second_ids = delta_pos[delta_codes[firsts.size:]]
        lo_ids = np.minimum(first_ids, second_ids)
        hi_ids = np.maximum(first_ids, second_ids)
        stride = np.int64(raw_names.size)
        delta_keys, key_inverse = np.unique(lo_ids * stride + hi_ids, return_inverse=True)
        delta_counts = np.bincount(
            key_inverse, weights=counts.astype(np.float64)
        ).astype(np.int64)

        # Re-key the existing aggregated pairs in the grown id space and fold
        # the delta counts in at their binary-search slots.
        old_keys = old_raw_pos[self._raw_lo] * stride + old_raw_pos[self._raw_hi]
        merged_keys = np.union1d(old_keys, delta_keys)
        merged_counts = np.zeros(merged_keys.size, dtype=np.int64)
        merged_counts[np.searchsorted(merged_keys, old_keys)] = self._raw_counts
        merged_counts[np.searchsorted(merged_keys, delta_keys)] += delta_counts

        # Snapshot the old kept-edge state (re-keyed) for the dirty diff;
        # _edge_weights is aligned with the kept pairs in ascending key order.
        old_kept = self._raw_counts >= self.min_cooccurrence
        old_kept_keys = old_keys[old_kept]
        old_kept_weights = self._edge_weights
        old_max_count = int(self._raw_counts[old_kept].max())

        self._install_raw(
            raw_names,
            merged_keys,
            merged_keys // stride,
            merged_keys % stride,
            merged_counts,
        )
        self._finalize_from_raw()
        self._clear_buffers()

        # Diff kept edges: a pair is dirty when it is newly kept or its
        # weight changed; counts only grow, so every old kept pair is still
        # present in the new kept set.
        new_kept = self._raw_counts >= self.min_cooccurrence
        new_kept_keys = self._raw_keys[new_kept]
        old_positions = np.searchsorted(new_kept_keys, old_kept_keys)
        changed = np.ones(new_kept_keys.size, dtype=bool)
        changed[old_positions] = self._edge_weights[old_positions] != old_kept_weights
        dirty_raw = np.unique(
            np.concatenate(
                [self._raw_lo[new_kept][changed], self._raw_hi[new_kept][changed]]
            )
        )
        dirty_ids = np.searchsorted(self._vertex_raw_ids, dirty_raw)
        new_max_count = int(self._raw_counts[new_kept].max())
        return RefinalizeReport(
            dirty_ids=dirty_ids,
            dirty_names=self._names[dirty_ids].copy(),
            old_to_new=np.searchsorted(self._names, old_names),
            num_new_vertices=int(self._names.size - old_names.size),
            max_count_changed=new_max_count != old_max_count,
        )

    # ------------------------------------------------------------------ #
    # Queries (string-keyed thin view over the id space)
    # ------------------------------------------------------------------ #
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise GraphError("graph must be finalized before it is queried")

    @property
    def num_vertices(self) -> int:
        self._require_finalized()
        return int(self._names.size)

    @property
    def num_edges(self) -> int:
        self._require_finalized()
        return int(self._edge_weights.size)

    @property
    def vertices(self) -> List[str]:
        self._require_finalized()
        return self._names.tolist()

    def vertex_index(self, name: str) -> int:
        self._require_finalized()
        if name not in self._vertex_index:
            raise KeyError(f"entity '{name}' is not in the proximity graph")
        return self._vertex_index[name]

    def vertex_ids(self, names: Sequence[str]) -> np.ndarray:
        """Encode entity names to vertex ids in one call.

        Raises :class:`KeyError` naming the first entity that is not a graph
        vertex.
        """
        self._require_finalized()
        ids = np.empty(len(names), dtype=np.int64)
        index = self._vertex_index
        for i, name in enumerate(names):
            found = index.get(name)
            if found is None:
                raise KeyError(f"entity '{name}' is not in the proximity graph")
            ids[i] = found
        return ids

    def has_vertex(self, name: str) -> bool:
        self._require_finalized()
        return name in self._vertex_index

    def _neighbor_slice(self, name: str) -> slice:
        vertex = self._vertex_index.get(name)
        if vertex is None:
            return slice(0, 0)
        return slice(int(self._indptr[vertex]), int(self._indptr[vertex + 1]))

    def neighbors(self, name: str) -> Dict[str, float]:
        """Neighbours of an entity with their edge weights."""
        self._require_finalized()
        span = self._neighbor_slice(name)
        return dict(
            zip(
                self._names[self._indices[span]].tolist(),
                self._csr_weights[span].tolist(),
            )
        )

    def degree(self, name: str) -> float:
        """Weighted degree of an entity."""
        self._require_finalized()
        vertex = self._vertex_index.get(name)
        if vertex is None:
            return 0.0
        return float(self._degrees[vertex])

    def cooccurrence(self, first: str, second: str) -> int:
        """Raw co-occurrence count of a pair (0 if never seen).

        On a finalized graph with buffered (not yet refinalized) deltas the
        count includes the pending buffer, so the answer is always the total
        over everything the graph has been fed.
        """
        if not self._finalized:
            return self._buffered_cooccurrence(first, second)
        pending = (
            self._buffered_cooccurrence(first, second)
            if self.has_pending_updates
            else 0
        )
        lo, hi = self._key(first, second)
        lo_pos = np.searchsorted(self._raw_names, lo)
        hi_pos = np.searchsorted(self._raw_names, hi)
        if (
            lo_pos >= self._raw_names.size
            or hi_pos >= self._raw_names.size
            or self._raw_names[lo_pos] != lo
            or self._raw_names[hi_pos] != hi
        ):
            return pending
        key = lo_pos * np.int64(self._raw_names.size) + hi_pos
        position = np.searchsorted(self._raw_keys, key)
        if position >= self._raw_keys.size or self._raw_keys[position] != key:
            return pending
        return int(self._raw_counts[position]) + pending

    def _buffered_cooccurrence(self, first: str, second: str) -> int:
        lo, hi = self._key(first, second)
        total = 0
        for buffered_first, buffered_second, count in zip(
            self._buffer_firsts, self._buffer_seconds, self._buffer_counts
        ):
            if self._key(buffered_first, buffered_second) == (lo, hi):
                total += count
        for firsts, seconds, counts in self._buffer_arrays:
            match = ((firsts == lo) & (seconds == hi)) | ((firsts == hi) & (seconds == lo))
            if match.any():
                total += int(counts[match].sum())
        return total

    def edge_weight(self, first: str, second: str) -> float:
        """Normalised edge weight (0 if the edge does not exist)."""
        self._require_finalized()
        first_id = self._vertex_index.get(first)
        second_id = self._vertex_index.get(second)
        if first_id is None or second_id is None:
            return 0.0
        if first_id > second_id:
            first_id, second_id = second_id, first_id
        key = first_id * np.int64(self.num_vertices) + second_id
        position = np.searchsorted(self._edge_keys, key)
        if position >= self._edge_keys.size or self._edge_keys[position] != key:
            return 0.0
        return float(self._edge_weights[position])

    def edges(self) -> List[Tuple[str, str, float]]:
        """All edges as (first, second, weight) triples."""
        self._require_finalized()
        return list(
            zip(
                self._names[self._edge_src].tolist(),
                self._names[self._edge_dst].tolist(),
                self._edge_weights.tolist(),
            )
        )

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised edge list: (source indices, target indices, weights)."""
        self._require_finalized()
        return self._edge_src.copy(), self._edge_dst.copy(), self._edge_weights.copy()

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adjacency in CSR form: ``(indptr, indices, weights)``.

        ``indices[indptr[i]:indptr[i+1]]`` are vertex ``i``'s neighbours (in
        id order) and the aligned ``weights`` slice holds the edge weights;
        each undirected edge appears in both endpoint rows.  The returned
        arrays are the graph's own storage — treat them as read-only.
        """
        self._require_finalized()
        return self._indptr, self._indices, self._csr_weights

    @property
    def degrees(self) -> np.ndarray:
        """Cached weighted degree per vertex id (aligned with :attr:`vertices`)."""
        self._require_finalized()
        return self._degrees

    def degree_vector(self, power: float = 0.75) -> np.ndarray:
        """Weighted degrees raised to ``power`` (LINE's noise distribution)."""
        self._require_finalized()
        return self._degrees ** power

    def common_neighbors(self, first: str, second: str) -> List[str]:
        """Entities adjacent to both ``first`` and ``second``.

        The paper uses the number of common neighbours as an intuitive measure
        of semantic proximity (the Houston / Dallas example of Figure 3).
        """
        self._require_finalized()
        first_span = self._neighbor_slice(first)
        second_span = self._neighbor_slice(second)
        shared = np.intersect1d(
            self._indices[first_span], self._indices[second_span], assume_unique=True
        )
        return self._names[shared].tolist()

    # ------------------------------------------------------------------ #
    # Persistence (artifact cache)
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Save the raw co-occurrence counts and threshold to an ``.npz`` file.

        The finalised state (weights, CSR adjacency) is derived data and is
        recomputed on :meth:`load`, which keeps the file format independent of
        the weighting formula.  Pairs are stored id-encoded against a single
        entity-name table (format version 2), the only layout :meth:`load`
        reads.

        Raises :class:`GraphError` when buffered pair updates are pending —
        they are not part of the finalized raw arrays and would otherwise
        silently vanish from the saved file.
        """
        from ..utils.serialization import save_npz

        if self.has_pending_updates:
            raise GraphError(
                "graph has buffered pair updates that are not part of the "
                "finalized state; call finalize() or refinalize() before save()"
            )
        self._require_finalized()
        save_npz(
            path,
            {
                "format": np.array([GRAPH_FORMAT_VERSION], dtype=np.int64),
                "entity_names": self._raw_names,
                "pair_lo": self._raw_lo,
                "pair_hi": self._raw_hi,
                "counts": self._raw_counts,
                "min_cooccurrence": np.array([self.min_cooccurrence], dtype=np.int64),
            },
        )

    @classmethod
    def load(cls, path) -> "EntityProximityGraph":
        """Load and finalise a graph saved with :meth:`save`."""
        from ..utils.serialization import load_npz

        data = load_npz(path)
        if "format" in data:
            version = int(data["format"][0])
            if version != GRAPH_FORMAT_VERSION:
                raise GraphError(
                    f"proximity-graph file format {version} is not supported "
                    f"by this build (expected {GRAPH_FORMAT_VERSION})"
                )
        if not {"entity_names", "pair_lo", "pair_hi", "counts", "min_cooccurrence"} <= set(data):
            raise GraphError(f"unrecognised proximity-graph file format: {sorted(data)}")
        names = data["entity_names"]
        return cls.from_pair_arrays(
            names[data["pair_lo"]],
            names[data["pair_hi"]],
            data["counts"],
            min_cooccurrence=int(data["min_cooccurrence"][0]),
        )

    def to_networkx(self):
        """Export the graph to a :class:`networkx.Graph` (weights preserved)."""
        self._require_finalized()
        if _nx is None:  # pragma: no cover
            raise GraphError("networkx is not available")
        graph = _nx.Graph()
        graph.add_nodes_from(self.vertices)
        graph.add_weighted_edges_from(self.edges())
        return graph

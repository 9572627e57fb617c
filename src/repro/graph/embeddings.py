"""Entity-embedding container and the implicit-mutual-relation vector.

After the LINE stage, each entity of the proximity graph has a dense vector.
:class:`EntityEmbeddings` wraps the name -> vector mapping, provides the
nearest-neighbour queries used by the case study (paper Table V / Figure 8)
and computes the implicit mutual relation representation

.. math::

    MR_{i,j} = U_j - U_i

for any entity pair, returning a zero vector when one of the entities never
appears in the unlabeled corpus (the failure mode the paper's future-work
section discusses).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import GraphError
from ..utils.serialization import load_npz, save_npz
from .line import LineConfig, LineEmbeddingTrainer
from .proximity import EntityProximityGraph


class EntityEmbeddings:
    """Dense vectors for a set of named entities."""

    def __init__(self, names: Sequence[str], vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise GraphError("vectors must be a 2-D array (entities x dim)")
        if len(names) != vectors.shape[0]:
            raise GraphError(
                f"got {len(names)} names but {vectors.shape[0]} embedding rows"
            )
        self._names: List[str] = list(names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        if len(self._index) != len(self._names):
            raise GraphError("entity names must be unique")
        self.vectors = vectors

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #
    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def names(self) -> List[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def vector(self, name: str) -> np.ndarray:
        """Embedding of ``name``; a zero vector if the entity is unknown."""
        index = self._index.get(name)
        if index is None:
            return np.zeros(self.dim)
        return self.vectors[index]

    def ids(self, names: Sequence[str]) -> np.ndarray:
        """Row indices of ``names`` in :attr:`vectors` (-1 for unknown names)."""
        index = self._index
        return np.fromiter(
            (index.get(name, -1) for name in names), dtype=np.int64, count=len(names)
        )

    def vectors_for(self, names: Sequence[str], strict: bool = False) -> np.ndarray:
        """Embeddings for many names as one ``(len(names), dim)`` matrix.

        Unknown names contribute zero rows (the same fallback as
        :meth:`vector`); with ``strict=True`` a :class:`KeyError` naming the
        first unknown entity is raised instead.  This is the bulk counterpart
        of :meth:`vector` — consumers that previously looped names (graph
        propagation, the entity-vector table of the mutual-relation head)
        fetch their whole matrix in one call.
        """
        ids = self.ids(names)
        missing = ids < 0
        if missing.any():
            if strict:
                raise KeyError(
                    f"entity '{names[int(np.flatnonzero(missing)[0])]}' has no embedding"
                )
            out = self.vectors[np.where(missing, 0, ids)].copy()
            out[missing] = 0.0
            return out
        return self.vectors[ids]

    def mutual_relations(
        self, head_names: Sequence[str], tail_names: Sequence[str]
    ) -> np.ndarray:
        """Bulk :meth:`mutual_relation`: ``U_tail - U_head`` row per pair."""
        if len(head_names) != len(tail_names):
            raise GraphError("head_names and tail_names must have equal length")
        return self.vectors_for(tail_names) - self.vectors_for(head_names)

    def mutual_relation(self, head_name: str, tail_name: str) -> np.ndarray:
        """Implicit mutual relation ``MR = U_tail - U_head`` of an entity pair.

        Either entity may be absent from the proximity graph (it never
        co-occurred in the unlabeled corpus); :meth:`vector` then contributes
        a zero vector, so the result degrades gracefully: ``U_tail`` alone if
        only the head is unknown, ``-U_head`` if only the tail is unknown,
        and the all-zero vector if both are — the failure mode for low-degree
        vertices the paper's future-work section discusses.  No exception is
        raised for unknown entities.
        """
        return self.vector(tail_name) - self.vector(head_name)

    # ------------------------------------------------------------------ #
    # Similarity queries (case study)
    # ------------------------------------------------------------------ #
    def cosine_similarity(self, first: str, second: str) -> float:
        """Cosine similarity between two entity embeddings (0 if unknown)."""
        a, b = self.vector(first), self.vector(second)
        norm = np.linalg.norm(a) * np.linalg.norm(b)
        if norm == 0:
            return 0.0
        return float(a @ b / norm)

    def nearest(self, name: str, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` nearest entities by cosine similarity (excluding ``name``)."""
        if name not in self._index:
            raise KeyError(f"entity '{name}' has no embedding")
        if k <= 0:
            return []
        query = self.vector(name)
        query_norm = np.linalg.norm(query)
        if query_norm == 0:
            return []
        norms = np.linalg.norm(self.vectors, axis=1)
        safe_norms = np.where(norms == 0, 1.0, norms)
        similarities = (self.vectors @ query) / (safe_norms * query_norm)
        similarities[norms == 0] = -np.inf
        similarities[self._index[name]] = -np.inf
        top = np.argsort(-similarities)[:k]
        return [(self._names[int(i)], float(similarities[int(i)])) for i in top]

    def analogous_pairs(
        self,
        head_name: str,
        tail_name: str,
        candidate_pairs: Sequence[Tuple[str, str]],
        k: int = 5,
    ) -> List[Tuple[Tuple[str, str], float]]:
        """Rank candidate pairs by similarity of their mutual-relation vectors.

        This is the mechanism behind the paper's motivating example: the pair
        (Stanford University, California) should be close to
        (University of Washington, Seattle) in mutual-relation space.
        """
        query = self.mutual_relation(head_name, tail_name)
        query_norm = np.linalg.norm(query)
        candidates = [
            tuple(candidate)
            for candidate in candidate_pairs
            if tuple(candidate) != (head_name, tail_name)
        ]
        if not candidates:
            return []
        relations = self.mutual_relations(
            [head for head, _ in candidates], [tail for _, tail in candidates]
        )
        norms = np.linalg.norm(relations, axis=1) * query_norm
        scores = np.divide(
            relations @ query, norms, out=np.zeros(len(candidates)), where=norms > 0
        )
        scored = [
            (candidate, float(score)) for candidate, score in zip(candidates, scores)
        ]
        scored.sort(key=lambda item: -item[1])
        return scored[:k]

    def projection(self, dimensions: int = 3) -> Tuple[List[str], np.ndarray]:
        """PCA projection of all embeddings (the Figure 8 visualisation data)."""
        if dimensions <= 0:
            raise GraphError("dimensions must be positive")
        centered = self.vectors - self.vectors.mean(axis=0, keepdims=True)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        components = vt[:dimensions].T
        return self.names, centered @ components

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Save names and vectors to an npz file of stored (uncompressed) members."""
        save_npz(
            path,
            {
                "names": np.array(self._names, dtype=np.str_),
                "vectors": self.vectors,
            },
        )

    @classmethod
    def load(cls, path) -> "EntityEmbeddings":
        """Load embeddings saved with :meth:`save`."""
        data = load_npz(path)
        names = [str(name) for name in data["names"].tolist()]
        return cls(names, data["vectors"])


def train_entity_embeddings(
    graph: EntityProximityGraph,
    config: Optional[LineConfig] = None,
    order: str = "both",
) -> EntityEmbeddings:
    """Train LINE embeddings on a proximity graph and wrap them.

    ``order`` selects which proximity objective contributes to the final
    vectors: ``"both"`` (paper default, concatenation), ``"first"`` or
    ``"second"`` (used by the ablation benchmark).
    """
    trainer = LineEmbeddingTrainer(graph, config=config)
    trainer.train()
    if order == "both":
        matrix = trainer.embedding_matrix()
    elif order == "first":
        matrix = trainer.first_order_matrix()
    elif order == "second":
        matrix = trainer.second_order_matrix()
    else:
        raise GraphError(f"unknown embedding order '{order}' (use both/first/second)")
    return EntityEmbeddings(graph.vertices, matrix)

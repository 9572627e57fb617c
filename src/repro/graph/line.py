"""LINE-style vertex embedding of the entity proximity graph.

The paper follows Tang et al. (2015): two separate objectives preserve the
first-order proximity (observed edges) and the second-order proximity (shared
neighbourhoods), both trained with negative sampling, and the final entity
representation concatenates the two embeddings.

The trainer below uses the closed-form gradients of the negative-sampling
objective and plain SGD with edge sampling, exactly like the reference LINE
implementation (autograd is unnecessary here and would be much slower).
Array-level optimisations keep the step loop fast:

* edge indices, orientation flips and negative vertices are pre-drawn in
  chunks of many SGD steps at a time (amortising the per-call sampling
  overhead);
* each step writes its ``-lr``-scaled gradients for the update rows
  ``[sources | targets | negatives]`` once, into one buffer;
* the updates land through one 1-D ``np.add.at`` per table, at the flat
  offsets ``row * d + column`` of the flattened table.  numpy runs a 1-D
  ``ufunc.at`` on its fast path, unlike a 2-D ``np.add.at(table, rows, ...)``.

Byte-identity contract: every table element receives its additions in the
same order as the row scatter did, so the tables and the loss history are
bit-for-bit those of the row-scatter trainer (``tests/test_graph_kernels.py``).
Cached LINE artifacts therefore stay valid.  The tables are float64, and
each step's gathers and update buffer are fresh arrays (pooling them did
not pay off in graph preparation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..exceptions import GraphError
from .alias import AliasSampler
from .proximity import EntityProximityGraph


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _flat_view(table: np.ndarray) -> np.ndarray:
    """1-D view of a C-contiguous table (raises rather than copy)."""
    return table.reshape(-1, copy=False)


@dataclass
class LineConfig:
    """Hyper-parameters of the LINE embedding stage (Tang et al., 2015).

    Attributes
    ----------
    embedding_dim:
        Total entity-embedding size (``ke`` in paper Table III).  Must be
        even: the final vector concatenates a first-order and a second-order
        embedding of ``embedding_dim // 2`` dimensions each.
    negative_samples:
        Number ``K`` of negative vertices drawn per positive edge in the
        negative-sampling objective; negatives follow the degree^0.75 noise
        distribution.
    learning_rate:
        SGD step size shared by both objectives.
    epochs:
        Expected number of passes over the edge set.  Edges are drawn with
        probability proportional to their weight (alias sampling), so one
        "epoch" is ``num_edges`` sampled edges rather than a strict sweep.
    batch_edges:
        Edges per SGD step; larger batches vectorise better but make coarser
        updates.
    sample_chunk_edges:
        How many edges' worth of samples (edge indices, orientation flips and
        negatives) to pre-draw per alias-sampler call; many SGD steps then
        slice from the chunk.  Purely a throughput knob — it does not change
        the sampling distribution.
    seed:
        Seed of the trainer's random generator (initialisation and both
        samplers); fixing it makes the embedding stage fully deterministic,
        which the artifact cache relies on.
    finetune_epochs:
        Streaming refresh only: number of passes :meth:`LineEmbeddingTrainer.finetune`
        makes over the edges incident to a dirty vertex set after a graph
        :meth:`~repro.graph.proximity.EntityProximityGraph.refinalize`
        (``0`` skips fine-tuning entirely).  Batch training ignores it.
    """

    embedding_dim: int = 128
    negative_samples: int = 5
    learning_rate: float = 0.05
    epochs: int = 30
    batch_edges: int = 256
    sample_chunk_edges: int = 65536
    seed: int = 0
    finetune_epochs: int = 2

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0 or self.embedding_dim % 2 != 0:
            raise GraphError("embedding_dim must be a positive even number")
        if self.negative_samples <= 0:
            raise GraphError("negative_samples must be positive")
        if self.learning_rate <= 0:
            raise GraphError("learning_rate must be positive")
        if self.epochs <= 0:
            raise GraphError("epochs must be positive")
        if self.batch_edges <= 0:
            raise GraphError("batch_edges must be positive")
        if self.sample_chunk_edges <= 0:
            raise GraphError("sample_chunk_edges must be positive")
        if self.finetune_epochs < 0:
            raise GraphError("finetune_epochs must be >= 0")

    @property
    def order_dim(self) -> int:
        """Dimension of each of the first- and second-order embeddings."""
        return self.embedding_dim // 2


class LineEmbeddingTrainer:
    """Train first- and second-order LINE embeddings on a proximity graph."""

    def __init__(self, graph: EntityProximityGraph, config: Optional[LineConfig] = None) -> None:
        self.graph = graph
        self.config = config or LineConfig()
        self._rng = np.random.default_rng(self.config.seed)

        self._sources, self._targets, self._weights = graph.edge_arrays()
        if len(self._sources) == 0:
            raise GraphError("cannot embed a graph without edges")
        self._edge_sampler = AliasSampler(self._weights)
        self._negative_sampler = AliasSampler(graph.degree_vector(power=0.75))

        n = graph.num_vertices
        d = self.config.order_dim
        scale = 0.5 / d
        # First-order: a single vertex embedding table.
        self.first_order = self._rng.uniform(-scale, scale, size=(n, d))
        # Second-order: vertex and context tables.
        self.second_order = self._rng.uniform(-scale, scale, size=(n, d))
        self.second_context = np.zeros((n, d))
        # Per-epoch aggregates (mean and final batch loss per objective), so
        # the history stays O(epochs) however many SGD steps run.
        self._history: Dict[str, list] = {
            "first_order_loss": [],
            "second_order_loss": [],
            "first_order_last_loss": [],
            "second_order_last_loss": [],
        }

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #
    def _sample_chunks(
        self, num_steps: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield per-step (sources, targets, negatives) batches.

        Edge indices, orientation flips and negative vertices are pre-drawn
        for ``sample_chunk_edges`` edges at a time and then sliced per step,
        so the alias samplers and the RNG are called once per chunk rather
        than once per step.  Edges are undirected: each sampled edge is
        oriented randomly so both endpoints learn from it.
        """
        batch = self.config.batch_edges
        k = self.config.negative_samples
        steps_per_chunk = max(1, self.config.sample_chunk_edges // batch)
        remaining = num_steps
        while remaining > 0:
            steps = min(steps_per_chunk, remaining)
            remaining -= steps
            edges = self._edge_sampler.sample(self._rng, size=steps * batch)
            sources = self._sources[edges]
            targets = self._targets[edges]
            flip = self._rng.random(steps * batch) < 0.5
            sources, targets = (
                np.where(flip, targets, sources),
                np.where(flip, sources, targets),
            )
            negatives = self._negative_sampler.sample(
                self._rng, size=steps * batch * k
            ).reshape(steps, batch, k)
            for step in range(steps):
                span = slice(step * batch, (step + 1) * batch)
                yield sources[span], targets[span], negatives[step]

    # ------------------------------------------------------------------ #
    # SGD steps (closed-form negative-sampling gradients)
    # ------------------------------------------------------------------ #
    def _step_order(
        self,
        vertex_table: np.ndarray,
        context_table: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        negatives: np.ndarray,
        lr: float,
        flat: np.ndarray,
    ) -> float:
        """One negative-sampling SGD step; returns the mean batch loss.

        For first-order proximity the "context" table is the vertex table
        itself; for second-order proximity it is the separate context table.
        ``flat`` holds the flat table offsets of the update rows, from
        :meth:`_step`.
        """
        u = vertex_table[sources]          # (B, d)
        v_pos = context_table[targets]     # (B, d)
        v_neg = context_table[negatives]   # (B, K, d)

        pos_scores = np.einsum("bd,bd->b", u, v_pos)
        neg_scores = np.einsum("bd,bkd->bk", u, v_neg)
        pos_sig = _sigmoid(pos_scores)
        neg_sig = _sigmoid(neg_scores)

        loss = -np.log(pos_sig + 1e-12).mean() - np.log(1.0 - neg_sig + 1e-12).sum(axis=1).mean()

        # Gradients of the negative-sampling objective, scaled by -lr and
        # written once into the update rows [sources | targets | negatives].
        # All of them come from the pre-update tables, so the scatters of
        # one table can be fused into one call.
        grad_pos = (pos_sig - 1.0)[:, None]             # d loss / d (u . v_pos)
        # d loss / d (u . v_neg) is neg_sig itself.

        batch, k = negatives.shape
        d = vertex_table.shape[1]
        updates = np.empty(((2 + k) * batch, d))
        grad_u, grad_v_pos = updates[:batch], updates[batch:2 * batch]
        grad_v_neg = updates[2 * batch:].reshape(batch, k, d)
        np.multiply(grad_pos, v_pos, out=grad_u)
        np.add(grad_u, np.einsum("bk,bkd->bd", neg_sig, v_neg), out=grad_u)
        np.multiply(grad_pos, u, out=grad_v_pos)
        # The same single products as a broadcast multiply, about twice as fast.
        np.einsum("bk,bd->bkd", neg_sig, u, out=grad_v_neg)
        np.multiply(updates, -lr, out=updates)

        if vertex_table is context_table:
            np.add.at(_flat_view(vertex_table), flat, updates.reshape(-1))
        else:
            np.add.at(_flat_view(vertex_table), flat[:batch * d], grad_u.reshape(-1))
            np.add.at(_flat_view(context_table), flat[batch * d:], updates[batch:].reshape(-1))
        return float(loss)

    def _step(
        self, sources: np.ndarray, targets: np.ndarray, negatives: np.ndarray, lr: float
    ) -> Tuple[float, float]:
        """One SGD step of both objectives; returns their mean batch losses.

        Both share ``flat``: the offsets ``row * d + column`` of the update
        rows [sources | targets | negatives] in a flattened table, at which
        their 1-D ``np.add.at`` scatters land (see the module docstring).
        """
        d = self.config.order_dim
        rows = np.concatenate([sources, targets, negatives.reshape(-1)])
        flat = ((rows * d)[:, None] + np.arange(d)).reshape(-1)
        loss1 = self._step_order(
            self.first_order, self.first_order, sources, targets, negatives, lr, flat
        )
        loss2 = self._step_order(
            self.second_order, self.second_context, sources, targets, negatives, lr, flat
        )
        return loss1, loss2

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def train(self, verbose: bool = False) -> Dict[str, list]:
        """Run the configured number of epochs; returns the loss history.

        The history holds per-epoch aggregates — ``first_order_loss`` /
        ``second_order_loss`` are the mean batch loss of each epoch and the
        ``*_last_loss`` keys its final batch loss — so its size is O(epochs)
        regardless of how many SGD steps an epoch contains.
        """
        num_edges = len(self._sources)
        steps_per_epoch = max(1, num_edges // self.config.batch_edges)
        total_steps = steps_per_epoch * self.config.epochs
        batches = self._sample_chunks(total_steps)
        for epoch in range(self.config.epochs):
            epoch_sum1 = epoch_sum2 = 0.0
            loss1 = loss2 = 0.0
            for step_in_epoch in range(steps_per_epoch):
                step = epoch * steps_per_epoch + step_in_epoch
                lr = self.config.learning_rate * max(0.0001, 1.0 - step / total_steps)
                loss1, loss2 = self._step(*next(batches), lr)
                epoch_sum1 += loss1
                epoch_sum2 += loss2
            self._history["first_order_loss"].append(epoch_sum1 / steps_per_epoch)
            self._history["second_order_loss"].append(epoch_sum2 / steps_per_epoch)
            self._history["first_order_last_loss"].append(loss1)
            self._history["second_order_last_loss"].append(loss2)
        return self._history

    # ------------------------------------------------------------------ #
    # Streaming warm start / targeted fine-tune
    # ------------------------------------------------------------------ #
    def warm_start(
        self,
        rows: np.ndarray,
        first_order: np.ndarray,
        second_order: np.ndarray,
        second_context: np.ndarray,
    ) -> None:
        """Overwrite ``rows`` of the three tables with carried-over vectors.

        The streaming ingestor builds a fresh trainer on the refinalized
        graph and then copies the previous round's (raw, unnormalised)
        tables into the surviving vertices' rows via the refinalize report's
        id remap; rows *not* listed keep this trainer's deterministic random
        initialisation, which is how vertices new to the graph get their
        starting vectors.
        """
        rows = np.asarray(rows, dtype=np.int64)
        d = self.config.order_dim
        for name, table in (
            ("first_order", first_order),
            ("second_order", second_order),
            ("second_context", second_context),
        ):
            table = np.asarray(table, dtype=np.float64)
            if table.shape != (rows.size, d):
                raise GraphError(
                    f"warm-start {name} rows have shape {table.shape}, "
                    f"expected {(rows.size, d)}"
                )
        self.first_order[rows] = first_order
        self.second_order[rows] = second_order
        self.second_context[rows] = second_context

    def finetune(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Fine-tune restricted to edges incident to ``vertex_ids``.

        Runs ``config.finetune_epochs`` passes over the incident edge subset
        with the same closed-form negative-sampling SGD as :meth:`train`, at
        a constant ``learning_rate`` (no decay — this is a refinement of an
        already-trained table, not a fresh optimisation).  Positive edges
        are drawn from the incident subset and negatives from the subset's
        endpoint set (degree^0.75 within it), so only rows in the returned
        array are ever written — embeddings of vertices outside the dirty
        1-hop neighbourhood stay bit-identical, which the streaming parity
        contract relies on.

        Returns the sorted vertex ids whose table rows may have changed.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        if vertex_ids.size == 0 or self.config.finetune_epochs == 0:
            return np.empty(0, dtype=np.int64)
        incident = np.isin(self._sources, vertex_ids) | np.isin(self._targets, vertex_ids)
        incident_idx = np.flatnonzero(incident)
        if incident_idx.size == 0:
            return np.empty(0, dtype=np.int64)
        sources = self._sources[incident_idx]
        targets = self._targets[incident_idx]
        touched = np.unique(np.concatenate([sources, targets]))
        edge_sampler = AliasSampler(self._weights[incident_idx])
        negative_sampler = AliasSampler(self.graph.degrees[touched] ** 0.75)
        batch = min(self.config.batch_edges, incident_idx.size)
        k = self.config.negative_samples
        steps = self.config.finetune_epochs * max(1, incident_idx.size // batch)
        lr = self.config.learning_rate
        for _ in range(steps):
            picks = edge_sampler.sample(self._rng, size=batch)
            step_sources, step_targets = sources[picks], targets[picks]
            flip = self._rng.random(batch) < 0.5
            step_sources, step_targets = (
                np.where(flip, step_targets, step_sources),
                np.where(flip, step_sources, step_targets),
            )
            negatives = touched[
                negative_sampler.sample(self._rng, size=batch * k).reshape(batch, k)
            ]
            self._step(step_sources, step_targets, negatives, lr)
        return touched

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def embedding_matrix(self, normalize: bool = True) -> np.ndarray:
        """Concatenate the first- and second-order embeddings per vertex."""
        first, second = self.first_order, self.second_order
        if normalize:
            first = first / (np.linalg.norm(first, axis=1, keepdims=True) + 1e-12)
            second = second / (np.linalg.norm(second, axis=1, keepdims=True) + 1e-12)
        return np.concatenate([first, second], axis=1)

    def first_order_matrix(self, normalize: bool = True) -> np.ndarray:
        """First-order embedding only (used by the ablation benchmark)."""
        first = self.first_order
        if normalize:
            first = first / (np.linalg.norm(first, axis=1, keepdims=True) + 1e-12)
        return first.copy()

    def second_order_matrix(self, normalize: bool = True) -> np.ndarray:
        """Second-order embedding only (used by the ablation benchmark)."""
        second = self.second_order
        if normalize:
            second = second / (np.linalg.norm(second, axis=1, keepdims=True) + 1e-12)
        return second.copy()

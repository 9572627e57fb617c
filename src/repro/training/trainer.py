"""Bag-level training loop.

Training follows the paper's protocol: mini-batches of bags, selective
attention guided by the gold relation, cross-entropy on the combined logits
with the dominant NA class down-weighted, SGD with gradient clipping.

Each mini-batch runs as ONE vectorized forward/backward over a padded batch
(:mod:`repro.batch`) whenever the model supports it — same losses and
gradients as the per-bag loop to float64 round-off, several times faster per
epoch (``benchmarks/test_bench_train.py``).  Models the batched layer does
not understand, and configs with ``batched_training=False``, use the per-bag
loop.

The batched path pools its per-batch scratch in one
:class:`~repro.nn.backend.Workspace` per trainer.  Pinning
``TrainingConfig(backend="fast")`` engages the *float32 training policy*
(:mod:`repro.nn.backend`): the forward/backward graph runs in float32 on a
shadow copy of the model while the optimizer keeps updating float64 master
weights, with gradients accumulated in float64 at the parameter boundary
(float32→float64 is exact).  ``None`` and ``"reference"`` train in the
model's dtype.  Checkpoints and the trained model always hold the float64
masters — see the parity contract in ``docs/architecture.md``.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..batch import batched_train_logits, supports_batched_training
from ..batch.merging import MergedBagBatch, merge_store_batch
from ..config import TrainingConfig
from ..corpus.bags import EncodedBag
from ..corpus.loader import BatchIterator
from ..corpus.store import CorpusStore
from ..exceptions import ConfigurationError
from ..nn import functional as F
from ..nn.backend import Workspace, backend_dtype
from ..nn.tensor import default_dtype
from ..utils.logging import get_logger
from .callbacks import CheckpointCallback, EarlyStopping, LossHistory

logger = get_logger("training")


@dataclass
class TrainingResult:
    """Summary of one training run."""

    epochs_run: int
    batch_losses: List[float] = field(default_factory=list)
    epoch_losses: List[float] = field(default_factory=list)
    stopped_early: bool = False
    # True when training was aborted because a batch loss went non-finite
    # (NaN/inf); the model parameters are not trustworthy in that case.
    diverged: bool = False

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains any model exposing ``forward(bag, relation_id) -> logits``."""

    def __init__(
        self,
        model: nn.Module,
        num_relations: int,
        config: Optional[TrainingConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.num_relations = num_relations
        self.config = config or TrainingConfig()
        self.config.validate()
        self._rng = rng or np.random.default_rng(self.config.seed)
        self._optimizer = self._build_optimizer()
        self._class_weights = self._build_class_weights()
        self._batched = self.config.batched_training and supports_batched_training(model)
        self._workspace = Workspace()
        self._master_params = self._optimizer.parameters
        self._compute_model: nn.Module = self.model
        self._compute_params = self._master_params
        self._grad_buffers: List[np.ndarray] = []
        self._train_dtype: Optional[np.dtype] = None
        policy = backend_dtype(self.config.backend)
        if policy is not None and np.dtype(policy) != self.model.parameter_dtype():
            if self._batched:
                self._train_dtype = np.dtype(policy)
                # Shadow compute model: forward/backward runs here in the
                # policy dtype; the optimizer keeps updating the float64
                # masters in self.model, which stay the source of truth for
                # checkpoints and the returned trained model.
                self._compute_model = copy.deepcopy(self.model).cast_(self._train_dtype)
                self._compute_params = list(self._compute_model.parameters())
                self._grad_buffers = [np.empty_like(p.data) for p in self._master_params]
            else:
                logger.warning(
                    "backend '%s' requests %s training, but the %s path does "
                    "not support the dtype policy; training in %s",
                    self.backend,
                    np.dtype(policy).name,
                    "per-bag" if self.config.batched_training else "non-batched",
                    self.model.parameter_dtype().name,
                )

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _build_optimizer(self) -> nn.Optimizer:
        parameters = list(self.model.parameters())
        if not parameters:
            raise ConfigurationError("model has no trainable parameters")
        if self.config.optimizer == "sgd":
            return nn.SGD(
                parameters,
                lr=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            )
        return nn.Adam(
            parameters,
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )

    def _build_class_weights(self) -> np.ndarray:
        weights = np.ones(self.num_relations)
        # Relation id 0 is NA by convention; down-weight it so positive
        # relations are not drowned out (the NYT corpus is ~80% NA bags).
        weights[0] = self.config.na_class_weight
        return weights

    # ------------------------------------------------------------------ #
    # Backend plumbing
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """Name of the compute backend (``"reference"`` unless pinned)."""
        return self.config.backend or "reference"

    @property
    def activation_dtype(self) -> np.dtype:
        """Dtype the forward/backward graph runs in (policy or model dtype)."""
        return self._train_dtype or self.model.parameter_dtype()

    def workspace_stats(self) -> Dict[str, int]:
        """Statistics of the trainer's pooled batched-path scratch.

        ``allocations`` counts fresh buffer allocations over the trainer's
        lifetime; a steady-state loop stops incrementing it after the first
        epoch (asserted in ``tests/test_train_backend.py``).  The per-bag
        loop does not use the workspace, so its counts stay zero.
        """
        return {
            "buffers": self._workspace.num_buffers,
            "nbytes": self._workspace.nbytes,
            "high_water_nbytes": self._workspace.high_water_nbytes,
            "allocations": self._workspace.allocations,
        }

    def _graph_scope(self):
        """Dtype scope for the forward/backward graph.

        Under the float32 policy, python-scalar constants entering the graph
        must become float32 0-d arrays or numpy's promotion would silently
        upcast every downstream activation back to float64.
        """
        if self._train_dtype is not None:
            return default_dtype(self._train_dtype)
        return contextlib.nullcontext()

    def _transfer_gradients(self) -> None:
        """Copy compute-model gradients onto the float64 master parameters.

        float32 → float64 is exact, so the master update sees precisely the
        gradients the compute graph produced; the copies land in pooled
        float64 buffers (no per-batch allocation).
        """
        for master, compute, buf in zip(
            self._master_params, self._compute_params, self._grad_buffers
        ):
            if compute.grad is None:
                master.grad = None
            else:
                np.copyto(buf, compute.grad)
                master.grad = buf

    def _sync_compute_weights(self) -> None:
        """Downcast the updated float64 masters back into the compute model."""
        for master, compute in zip(self._master_params, self._compute_params):
            np.copyto(compute.data, master.data)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_batch(
        self, batch: Union[Sequence[EncodedBag], MergedBagBatch, CorpusStore]
    ) -> float:
        """One optimisation step over a batch of bags; returns the batch loss.

        With ``config.batched_training`` (the default) and a supported model
        the whole batch is one vectorized forward/backward over a padded
        batch — assembled directly from a :class:`MergedBagBatch` /
        :class:`CorpusStore` slice when given one; otherwise each bag builds
        its own graph and the logits are stacked.  Both paths yield the same
        loss and gradients to float64 round-off
        (``tests/test_batch_training.py``).
        """
        if len(batch) == 0:
            raise ConfigurationError("empty batch")
        with self._graph_scope():
            if self._batched:
                stacked = batched_train_logits(
                    self._compute_model, batch, workspace=self._workspace
                )
                labels = (
                    batch.labels
                    if isinstance(batch, (MergedBagBatch, CorpusStore))
                    else np.array([bag.label for bag in batch], dtype=np.int64)
                )
            else:
                if isinstance(batch, MergedBagBatch):
                    raise ConfigurationError(
                        "a MergedBagBatch requires batched training; pass encoded "
                        "bags (or a CorpusStore) for the per-bag loop"
                    )
                stacked = nn.stack([self.model(bag, bag.label) for bag in batch], axis=0)
                labels = np.array([bag.label for bag in batch], dtype=np.int64)
            loss = F.cross_entropy(stacked, labels, weight=self._class_weights)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                # Skip the update: back-propagating a NaN loss would poison every
                # parameter and the optimizer state, while returning it lets
                # fit() abort with the last finite parameters intact.
                return loss_value
            self._optimizer.zero_grad()
            if self._compute_model is not self.model:
                self._compute_model.zero_grad()
            loss.backward()
        if self._compute_model is not self.model:
            self._transfer_gradients()
        if self.config.grad_clip is not None:
            self._optimizer.clip_grad_norm(self.config.grad_clip)
        self._optimizer.step()
        if self._compute_model is not self.model:
            self._sync_compute_weights()
        return loss_value

    def fit(
        self,
        train_bags: Union[Sequence[EncodedBag], CorpusStore],
        early_stopping: Optional[EarlyStopping] = None,
        checkpoint: Optional[CheckpointCallback] = None,
    ) -> TrainingResult:
        """Train for the configured number of epochs.

        ``train_bags`` may be a sequence of encoded bags or a columnar
        :class:`CorpusStore`; with a store and the batched path every
        mini-batch is assembled by slicing the store's offsets — no per-bag
        objects are materialised anywhere in the epoch loop.  A memmapped
        store therefore trains out-of-core: each batch gather copies only
        its own rows into RAM.  The per-bag fallback
        (``batched_training=False``) is the exception — it materialises the
        whole store as :class:`EncodedBag` objects up front, so keep the
        batched path for corpora that do not fit in memory.

        ``checkpoint`` (a :class:`~repro.training.callbacks.CheckpointCallback`)
        saves the model after each epoch; diverged epochs are never
        checkpointed, so the newest saved checkpoint always holds finite
        parameters.
        """
        if len(train_bags) == 0:
            raise ConfigurationError("no training bags provided")
        store = train_bags if isinstance(train_bags, CorpusStore) else None
        if store is not None and not self._batched:
            # The per-bag loop consumes EncodedBag objects; materialise the
            # views once instead of once per epoch.
            train_bags = store.to_encoded_bags()
            store = None
        history = LossHistory()
        self.model.train()
        if self._compute_model is not self.model:
            self._compute_model.train()
        param_dtype = self.model.parameter_dtype().name
        activation_dtype = self.activation_dtype.name
        logger.info(
            "training %d bags: backend=%s params=%s activations=%s batched=%s",
            len(train_bags), self.backend, param_dtype, activation_dtype,
            self._batched,
        )
        stopped_early = False
        diverged = False
        epochs_run = 0
        # One iterator for the whole run: its persistent permutation buffer
        # is reshuffled in place at the start of every epoch.
        iterator = BatchIterator(
            train_bags,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            rng=self._rng,
        )
        for epoch in range(self.config.epochs):
            for batch_index, batch in enumerate(iterator):
                if store is not None:
                    batch = merge_store_batch(store, batch, workspace=self._workspace)
                loss = self.train_batch(batch)
                history.record_batch(loss)
                if not np.isfinite(loss):
                    # A NaN/inf loss never recovers; burning the remaining
                    # epoch budget on it only wastes time and hides the bug.
                    diverged = True
                    logger.warning(
                        "non-finite loss %s at epoch %d batch %d; stopping training",
                        loss, epoch + 1, batch_index + 1,
                    )
                    break
                if self.config.log_every and (batch_index + 1) % self.config.log_every == 0:
                    logger.info(
                        "epoch %d batch %d loss %.4f", epoch + 1, batch_index + 1, loss
                    )
            epoch_loss = history.end_epoch()
            epochs_run = epoch + 1
            stats = self.workspace_stats()
            logger.debug(
                "epoch %d mean loss %.4f [backend=%s params=%s activations=%s"
                " scratch=%dB/%dbuf allocs=%d]",
                epoch + 1, epoch_loss, self.backend, param_dtype, activation_dtype,
                stats["nbytes"], stats["buffers"], stats["allocations"],
            )
            if diverged:
                break
            if checkpoint is not None:
                checkpoint.on_epoch_end(self.model, epoch + 1, epoch_loss)
            if early_stopping is not None and early_stopping.should_stop(epoch_loss):
                stopped_early = True
                break
        self.model.eval()
        if self._compute_model is not self.model:
            self._compute_model.eval()
        return TrainingResult(
            epochs_run=epochs_run,
            batch_losses=history.batch_losses,
            epoch_losses=history.epoch_losses,
            stopped_early=stopped_early,
            diverged=diverged,
        )

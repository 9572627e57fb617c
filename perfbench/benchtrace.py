"""Spans around the calls the benchmark makes into each layer of ``repro``.

The program itself is not instrumented: :class:`Tracer` replaces named
public callables (module functions, methods, class methods, dict entries)
with timing wrappers for the duration of a traced run and puts the
originals back afterwards.  A span is ``(name, start, end, parent)``; spans
stay in memory until the run ends.

One target can belong to different layers in different phases (for example
``BagEncoder.encode_store`` is ``setup.encode`` while the context is built
and ``ingest.encode`` inside a refresh round), so every wrapper looks up
the current phase and records nothing outside the phases it is mapped to.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchstats import self_times


class TraceTargetMissing(RuntimeError):
    """A layer's wrap target no longer exists, so the layer cannot be timed."""


# (module, owner path inside the module or "", attribute or dict key,
#  {phase: layer}).  Layer span names are "<phase>.<layer>".
TARGETS: Sequence[Tuple[str, str, str, Dict[str, str]]] = (
    # Context set-up (prepare_context).
    ("repro.experiments.pipeline", "DATASET_BUILDERS", "nyt", {"setup": "dataset"}),
    ("repro.experiments.pipeline", "", "train_entity_embeddings", {"setup": "line"}),
    ("repro.corpus.loader", "BagEncoder", "encode_store", {"setup": "encode", "ingest": "encode"}),
    # Batched training.
    ("repro.training.trainer", "", "batched_train_logits", {"train": "forward"}),
    ("repro.training.trainer", "", "merge_store_batch", {"train": "merge"}),
    ("repro.nn.functional", "", "cross_entropy", {"train": "loss"}),
    ("repro.nn.tensor", "Tensor", "backward", {"train": "backward"}),
    ("repro.nn.optim", "Adam", "step", {"train": "optimizer"}),
    ("repro.nn.optim", "Optimizer", "clip_grad_norm", {"train": "optimizer"}),
    # Bulk scoring and the daemon's batches.
    ("repro.serve.service", "", "batched_predict_probabilities", {"score": "forward"}),
    ("repro.serve.service", "", "merge_store_batch", {"score": "merge"}),
    ("repro.serve.service", "PredictionService", "encode_request", {"online": "encode"}),
    ("repro.serve.service", "PredictionService", "predict_encoded", {"online": "forward"}),
    # Graph preparation.
    ("repro.graph.proximity", "EntityProximityGraph", "from_pair_arrays", {"graph": "build"}),
    ("repro.graph.alias", "", "build_alias_tables", {"graph": "alias"}),
    ("repro.graph.line", "LineEmbeddingTrainer", "__init__", {"graph": "line", "ingest": "line_finetune"}),
    ("repro.graph.line", "LineEmbeddingTrainer", "train", {"graph": "line"}),
    ("repro.graph.line", "LineEmbeddingTrainer", "warm_start", {"ingest": "line_finetune"}),
    ("repro.graph.line", "LineEmbeddingTrainer", "finetune", {"ingest": "line_finetune"}),
    ("repro.graph.line", "LineEmbeddingTrainer", "embedding_matrix", {"ingest": "line_finetune"}),
    ("repro.graph.propagation", "", "propagate_embeddings", {"graph": "propagate"}),
    # Streaming ingest rounds.
    ("repro.corpus.store", "CorpusStore", "append_store", {"ingest": "append"}),
    ("repro.graph.proximity", "EntityProximityGraph", "add_pair_arrays", {"ingest": "append"}),
    ("repro.graph.proximity", "EntityProximityGraph", "refinalize", {"ingest": "refinalize"}),
    ("repro.graph.alias", "NeighborAliasTables", "refresh", {"ingest": "alias_refresh"}),
    ("repro.ingest.versions", "ArtifactVersionStore", "publish", {"ingest": "publish_seal"}),
    ("repro.corpus.store", "CorpusStore", "save", {"ingest": "publish_write"}),
    ("repro.graph.proximity", "EntityProximityGraph", "save", {"ingest": "publish_write"}),
    ("repro.graph.embeddings", "EntityEmbeddings", "save", {"ingest": "publish_write"}),
    ("repro.core.model", "NeuralREModel", "save", {"ingest": "publish_write"}),
    ("repro.ingest.versions", "ArtifactVersionStore", "prune", {"ingest": "prune"}),
)

# The layers of each phase.  A traced run reports each one's self time and
# fails when one recorded no span: a refactor that renames or bypasses a
# target must fail the run, not leave the layer reading zero.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "setup": ("dataset", "line", "encode"),
    "train": ("forward", "backward", "optimizer", "merge", "loss"),
    "score": ("forward", "merge"),
    "online": ("encode", "forward"),
    "graph": ("build", "alias", "line", "propagate"),
    "ingest": (
        "encode", "append", "refinalize", "line_finetune", "alias_refresh",
        "publish_write", "publish_seal", "prune",
    ),
}

Probe = Callable[[tuple, Any, float, float], None]


class Tracer:
    """Records nested spans from wrapped callables, per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase: Optional[str] = None
        self.spans: List[Tuple[str, float, float, int]] = []
        self.probes: Dict[str, Probe] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -------------------------------------------------------------- #
    # Spans
    # -------------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(index)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans[index] = (name, start, end, self.spans[index][3])
        probe = self.probes.get(name)
        if probe is not None:
            probe(args, result, start, end)
        return result

    def layer_self_times(self, phase: str) -> Dict[str, float]:
        """Self time per layer of ``phase`` over all spans recorded so far."""
        prefix = phase + "."
        totals: Dict[str, float] = {}
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            if name.startswith(prefix):
                layer = name[len(prefix):]
                totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def span_counts(self, phase: str) -> Dict[str, int]:
        prefix = phase + "."
        counts: Dict[str, int] = {}
        for name, _, _, _ in self.spans:
            if name.startswith(prefix):
                layer = name[len(prefix):]
                counts[layer] = counts.get(layer, 0) + 1
        return counts

    def check_layers(self, phase: str) -> None:
        """Fail loudly when a required layer of ``phase`` recorded no span."""
        counts = self.span_counts(phase)
        missing = [layer for layer in LAYERS[phase] if not counts.get(layer)]
        if missing:
            raise TraceTargetMissing(
                f"traced phase '{phase}' recorded no span for layer(s) "
                f"{', '.join(missing)}: the wrapped call is no longer on this path"
            )

    # -------------------------------------------------------------- #
    # Installing and removing wrappers
    # -------------------------------------------------------------- #
    def install(self, targets=TARGETS) -> None:
        for module_name, owner_path, attr, layers in targets:
            self._wrap(module_name, owner_path, attr, dict(layers))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, module_name: str, owner_path: str, attr: str, layers: Dict[str, str]) -> None:
        where = f"{module_name}:{owner_path + '.' if owner_path else ''}{attr}"
        try:
            owner: Any = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
        except (ImportError, AttributeError) as error:
            raise TraceTargetMissing(f"wrap target {where} is gone: {error}") from error

        tracer = self

        def wrapped_callable(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                layer = layers.get(tracer.phase)
                if layer is None:
                    return fn(*args, **kwargs)
                return tracer.call(f"{tracer.phase}.{layer}", fn, args, kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        if isinstance(owner, dict):
            if attr not in owner or not callable(owner[attr]):
                raise TraceTargetMissing(f"wrap target {where} is gone")
            original = owner[attr]
            owner[attr] = wrapped_callable(original)
            self._restore.append(lambda: owner.__setitem__(attr, original))
            return

        # A class target must be defined on the class itself: if it moved to
        # a base class, the layer's code changed and the table must follow.
        namespace = vars(owner)
        if attr not in namespace:
            raise TraceTargetMissing(f"wrap target {where} is gone")
        raw = namespace[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(wrapped_callable(raw.__func__))
        elif callable(raw):
            replacement = wrapped_callable(raw)
        else:
            raise TraceTargetMissing(f"wrap target {where} is not callable")
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, raw))

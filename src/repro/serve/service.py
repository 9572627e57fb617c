"""Batch prediction service over a trained relation-extraction model.

:class:`PredictionService` is the serving-side entry point of the repo: it
owns a trained :class:`~repro.core.NeuralREModel`, a reusable
:class:`~repro.corpus.loader.BagEncoder` and the knowledge-base / schema
metadata needed to turn incoming ``(head, tail, sentences)`` requests into
encoded bags, run a vectorized forward pass over a whole batch (the shared
padded-batch layer, :mod:`repro.batch`), and return the top-k relations with
confidences.

See ``docs/serving.md`` for the full API walk-through and
``benchmarks/test_bench_serve.py`` for the measured batched-vs-per-bag
speedup.
"""

from __future__ import annotations

import copy
import re
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.model import NeuralREModel
from ..corpus.bags import Bag, EncodedBag, SentenceExample
from ..corpus.loader import BagEncoder
from ..corpus.store import CorpusStore
from ..exceptions import DataError
from ..kb.knowledge_base import KnowledgeBase
from ..kb.schema import RelationSchema
from ..batch import batched_predict_probabilities
from ..batch.merging import merge_store_batch
from ..nn.backend import Workspace, backend_dtype
from ..text.tokenizer import simple_tokenize
from ..utils.logging import get_logger

logger = get_logger("serve")

#: Entity id used for entities the knowledge base does not know; the
#: mutual-relation head maps it to a zero vector.
UNKNOWN_ENTITY_ID = -1

SentenceLike = Union[str, SentenceExample, Tuple[Sequence[str], int, int]]


@dataclass
class PredictionRequest:
    """One incoming prediction request.

    ``sentences`` accepts raw strings (the service tokenises them and locates
    the entity mentions), pre-built :class:`SentenceExample` objects, or
    ``(tokens, head_position, tail_position)`` tuples.
    """

    head: str
    tail: str
    sentences: Sequence[SentenceLike]


@dataclass
class RelationPrediction:
    """One (relation, confidence) entry of a top-k answer."""

    relation_id: int
    relation_name: str
    confidence: float


@dataclass
class PredictionResult:
    """The service's answer for one request."""

    head: str
    tail: str
    predictions: List[RelationPrediction]
    probabilities: np.ndarray

    @property
    def top(self) -> RelationPrediction:
        """The most confident relation."""
        return self.predictions[0]


@dataclass
class ServiceStats:
    """Lifetime counters of a :class:`PredictionService` instance."""

    requests: int = 0
    batches: int = 0
    sentences: int = 0


class PredictionService:
    """Batched inference over a trained :class:`NeuralREModel`.

    Parameters
    ----------
    model:
        A trained model; it is switched to eval mode and never trained here.
    encoder:
        The :class:`BagEncoder` used at training time (same vocabulary,
        position clipping and per-bag sentence cap), reused for requests.
    schema:
        Relation schema used to name predicted relation ids.
    kb:
        Optional knowledge base for resolving entity names to ids and coarse
        types.  Entities it does not contain fall back to
        :data:`UNKNOWN_ENTITY_ID` (zero mutual-relation vector) and the
        unknown entity type.
    batch_size:
        Maximum number of bags merged into one vectorized forward pass; modest
        chunks keep padding waste low (bags are width-bucketed first), so the
        default favours throughput over raw batch size.
    backend:
        Compute backend name (see :mod:`repro.nn.backend`).  ``"fast"``
        casts the model weights once to float32, on a private copy (the
        caller's model is untouched); ``None`` (the default) and
        ``"reference"`` serve in the model's own dtype.  Whatever the
        backend, padded batch buffers and intermediate activations are
        pooled in a per-worker-thread :class:`~repro.nn.backend.Workspace`.
    """

    def __init__(
        self,
        model: NeuralREModel,
        encoder: BagEncoder,
        schema: RelationSchema,
        kb: Optional[KnowledgeBase] = None,
        batch_size: int = 32,
        backend: Optional[str] = None,
    ) -> None:
        if batch_size <= 0:
            raise DataError("batch_size must be positive")
        #: The ``backend`` argument as given, so reload paths (the serving
        #: daemon's hot checkpoint reload) can rebuild an identical service.
        self.requested_backend = backend
        self.serve_dtype: Optional[np.dtype] = backend_dtype(backend)
        if self.serve_dtype is not None and model.parameter_dtype() != self.serve_dtype:
            model = copy.deepcopy(model).cast_(self.serve_dtype)
        self.model = model
        self.encoder = encoder
        self.schema = schema
        self.kb = kb
        self.batch_size = batch_size
        self.stats = ServiceStats()
        self._thread_state = threading.local()
        model.eval()
        logger.info(
            "prediction service ready: %s, %d relations, batch_size=%d, backend=%s%s",
            model.describe(),
            model.num_relations,
            batch_size,
            self.backend,
            f" (dtype={np.dtype(self.serve_dtype).name})" if self.serve_dtype else "",
        )

    @property
    def backend(self) -> str:
        """Name of the compute backend (``"reference"`` unless pinned)."""
        return self.requested_backend or "reference"

    def _workspace(self) -> Workspace:
        """The calling thread's scratch pool.

        Workspaces are keyed on the calling thread so the daemon's worker
        pool never shares (and never locks) buffers; each worker amortises
        its padded-batch and activation allocations across batches.
        """
        workspace = getattr(self._thread_state, "workspace", None)
        if workspace is None:
            workspace = self._thread_state.workspace = Workspace()
        return workspace

    @classmethod
    def from_context(
        cls,
        context,
        model: NeuralREModel,
        batch_size: int = 32,
        backend: Optional[str] = None,
    ) -> "PredictionService":
        """Build a service from a prepared experiment context and a trained model.

        ``context`` is the :class:`repro.experiments.pipeline.ExperimentContext`
        the model was trained on; its bag encoder, schema and knowledge base
        are reused so serving-time encoding matches training exactly.
        """
        return cls(
            model=model,
            encoder=context.bag_encoder,
            schema=context.bundle.schema,
            kb=context.bundle.kb,
            batch_size=batch_size,
            backend=backend,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path,
        batch_size: int = 32,
        backend: Optional[str] = None,
    ) -> "PredictionService":
        """Cold-start a service from a checkpoint directory.

        The checkpoint must have been saved with its serving components
        (``NeuralREModel.save(path, encoder=..., schema=..., kb=...)``, which
        is what ``python -m repro train --checkpoint ...`` does); its
        predictions are bit-identical to the model that was saved.  See
        :mod:`repro.utils.checkpoint` for the format.
        """
        from ..exceptions import CheckpointError
        from ..utils.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(path)
        if checkpoint.encoder is None or checkpoint.schema is None:
            raise CheckpointError(
                f"checkpoint {path} has no serving components; save it with "
                "encoder= and schema= (or via 'python -m repro train') to serve it"
            )
        return cls(
            model=checkpoint.model,
            encoder=checkpoint.encoder,
            schema=checkpoint.schema,
            kb=checkpoint.kb,
            batch_size=batch_size,
            backend=backend,
        )

    # ------------------------------------------------------------------ #
    # Request encoding
    # ------------------------------------------------------------------ #
    def _resolve_entity(self, name: str) -> Tuple[int, Tuple[str, ...]]:
        if self.kb is not None and self.kb.has_entity(name):
            entity = self.kb.entity_by_name(name)
            return entity.entity_id, entity.types
        return UNKNOWN_ENTITY_ID, ()

    def _sentence_from_text(self, text: str, head: str, tail: str) -> SentenceExample:
        """Tokenise raw text, keeping each entity mention as a single token.

        Entity names occupy one token position in the training corpora
        (multi-word names are not split), so the raw-text path splits the
        string on the entity names first and tokenises only the remainder.
        Matches are anchored at word boundaries so a name never matches
        inside a longer word ("art" must not match inside "artist").
        """
        names = sorted({head, tail}, key=len, reverse=True)
        pattern = re.compile(
            "(" + "|".join(rf"(?<!\w){re.escape(name)}(?!\w)" for name in names) + ")"
        )
        tokens: List[str] = []
        head_position: Optional[int] = None
        tail_position: Optional[int] = None
        for piece in pattern.split(text):
            if piece == head and head_position is None:
                head_position = len(tokens)
                tokens.append(piece)
            elif piece == tail and tail_position is None:
                tail_position = len(tokens)
                tokens.append(piece)
            else:
                tokens.extend(simple_tokenize(piece))
        if head_position is None or tail_position is None:
            missing = head if head_position is None else tail
            raise DataError(
                f"sentence {text!r} does not mention entity {missing!r}; "
                "spell the entity name exactly as in the request"
            )
        return SentenceExample(tokens=tokens, head_position=head_position, tail_position=tail_position)

    def _as_sentence(self, sentence: SentenceLike, head: str, tail: str) -> SentenceExample:
        if isinstance(sentence, SentenceExample):
            return sentence
        if isinstance(sentence, str):
            return self._sentence_from_text(sentence, head, tail)
        tokens, head_position, tail_position = sentence
        return SentenceExample(
            tokens=list(tokens), head_position=int(head_position), tail_position=int(tail_position)
        )

    def encode_request(self, request: PredictionRequest) -> EncodedBag:
        """Turn one request into the padded arrays the model consumes."""
        if not request.sentences:
            raise DataError(
                f"request for pair ({request.head}, {request.tail}) has no sentences"
            )
        head_id, head_types = self._resolve_entity(request.head)
        tail_id, tail_types = self._resolve_entity(request.tail)
        bag = Bag(
            head_id=head_id,
            tail_id=tail_id,
            head_name=request.head,
            tail_name=request.tail,
            head_types=head_types,
            tail_types=tail_types,
            relation_ids={0},
            sentences=[self._as_sentence(s, request.head, request.tail) for s in request.sentences],
        )
        return self.encoder.encode(bag)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_encoded(
        self, bags: Union[Sequence[EncodedBag], CorpusStore]
    ) -> np.ndarray:
        """Probability matrix ``(num_bags, num_relations)`` for encoded bags.

        Accepts a sequence of encoded bags or a columnar
        :class:`~repro.corpus.store.CorpusStore`; store chunks are assembled
        by slicing the store's offsets (no per-bag objects).  Bags are
        processed in chunks of at most ``batch_size``; each chunk is one
        vectorized forward pass.  This is the hot path the benchmark measures
        and the evaluator can call directly.

        Memmapped stores serve out-of-core: the width sort reads only the
        always-in-RAM ``bag_widths`` column, and each chunk's gather copies
        just those rows from the mapped shards.
        """
        if len(bags) == 0:
            return np.zeros((0, self.model.num_relations))
        store = bags if isinstance(bags, CorpusStore) else None
        # Bags in a chunk are padded to the chunk's longest sentence, so
        # grouping similar widths together minimises wasted convolution work.
        widths = (
            store.bag_widths
            if store is not None
            else [bag.max_length for bag in bags]
        )
        order = np.argsort(widths, kind="stable")
        workspace = self._workspace()
        rows = []
        for start in range(0, len(order), self.batch_size):
            indices = order[start:start + self.batch_size]
            if store is not None:
                chunk = merge_store_batch(store, indices, workspace=workspace)
                num_sentences = chunk.num_sentences
            else:
                chunk = [bags[int(i)] for i in indices]
                num_sentences = sum(bag.num_sentences for bag in chunk)
            rows.append(batched_predict_probabilities(self.model, chunk, workspace=workspace))
            self.stats.batches += 1
            self.stats.sentences += num_sentences
        self.stats.requests += len(bags)
        stacked = np.concatenate(rows, axis=0)
        probabilities = np.empty_like(stacked)
        probabilities[order] = stacked
        return probabilities

    def predict_batch(
        self, requests: Sequence[PredictionRequest], top_k: int = 3
    ) -> List[PredictionResult]:
        """Encode and predict a batch of requests, returning top-k relations."""
        if len(requests) == 0:
            return []
        encoded = [self.encode_request(request) for request in requests]
        probabilities = self.predict_encoded(encoded)
        return [
            self.build_result(request, row, top_k)
            for request, row in zip(requests, probabilities)
        ]

    def predict(self, request: PredictionRequest, top_k: int = 3) -> PredictionResult:
        """Predict a single request (a batch of one)."""
        return self.predict_batch([request], top_k=top_k)[0]

    def build_result(
        self, request: PredictionRequest, probabilities: np.ndarray, top_k: int
    ) -> PredictionResult:
        """Format one probability row into a named top-k :class:`PredictionResult`.

        Pure formatting over the schema — no model work; the serving daemon
        uses it to turn a coalesced batch's probability rows back into
        per-request answers.
        """
        k = max(1, min(top_k, len(probabilities)))
        top_ids = np.argsort(-probabilities)[:k]
        predictions = [
            RelationPrediction(
                relation_id=int(relation_id),
                relation_name=self.schema.relation_name(int(relation_id)),
                confidence=float(probabilities[relation_id]),
            )
            for relation_id in top_ids
        ]
        return PredictionResult(
            head=request.head,
            tail=request.tail,
            predictions=predictions,
            probabilities=probabilities,
        )

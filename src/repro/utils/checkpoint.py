"""Versioned model checkpoints — the train -> artifact -> serve handoff.

A checkpoint is a directory with a JSON manifest next to the files it
describes::

    checkpoint/
        manifest.json     format version, model spec, member file hashes,
                          free-form metadata
        weights.npz       flat state dict (plus frozen buffers such as the
                          mutual-relation entity-vector table)
        encoder.json      bag-encoder settings: vocabulary, type vocabulary,
                          length/position/sentence caps        (optional)
        schema.json       relation schema + knowledge base     (optional)

``weights.npz`` alone is enough to rebuild the :class:`NeuralREModel` (the
manifest's ``model`` section records how to reconstruct it); the optional
members carry everything :class:`repro.serve.PredictionService` needs to
serve the model in a fresh process — the exact :class:`BagEncoder`
configuration used at training time and the schema/KB used to resolve entity
names.  Loading verifies the manifest's format version and the SHA-256 hash
of every member file; corruption, truncation and version drift all raise
:class:`repro.exceptions.CheckpointError` instead of silently mispredicting.

See ``docs/api.md`` for the manifest format and ``docs/serving.md`` for the
cold-start serving workflow.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..exceptions import CheckpointError
from .logging import get_logger
from .serialization import file_sha256, save_npz

logger = get_logger("utils.checkpoint")

PathLike = Union[str, Path]

#: Bump on incompatible changes to the directory layout or manifest schema.
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.npz"
ENCODER_FILE = "encoder.json"
SCHEMA_FILE = "schema.json"

#: Reserved key in ``weights.npz`` for the frozen LINE entity-vector table of
#: the mutual-relation head (a buffer, not a trainable parameter).
ENTITY_VECTORS_KEY = "__entity_vectors__"

#: ``json.dumps`` separators for the machine-read members.
_COMPACT = (",", ":")


@dataclass
class Checkpoint:
    """A loaded checkpoint: the model plus optional serving components."""

    model: Any                      # NeuralREModel
    manifest: Dict[str, Any]
    encoder: Optional[Any] = None   # BagEncoder
    schema: Optional[Any] = None    # RelationSchema
    kb: Optional[Any] = None        # KnowledgeBase

    @property
    def metadata(self) -> Dict[str, Any]:
        """Free-form metadata recorded at save time."""
        return dict(self.manifest.get("metadata") or {})


def checkpointable_model(method_or_model):
    """The :class:`NeuralREModel` behind a fitted method (or the model itself).

    Shared by the CLI and the Session facade so both reject the same misuse
    the same way: checkpointing a feature-based method (or anything else
    without a ``NeuralREModel``) is a :class:`~repro.exceptions.UsageError`.
    """
    from ..core.model import NeuralREModel
    from ..exceptions import UsageError

    model = getattr(method_or_model, "model", method_or_model)
    if not isinstance(model, NeuralREModel):
        raise UsageError(
            f"{type(method_or_model).__name__} does not produce a checkpointable "
            "neural model; only NeuralREModel-based methods (e.g. pa_tmr, "
            "pcnn_att) can be saved"
        )
    return model


# ---------------------------------------------------------------------- #
# Model spec extraction / reconstruction
# ---------------------------------------------------------------------- #
def _model_spec(model) -> Dict[str, Any]:
    """Describe how to rebuild ``model`` (a NeuralREModel) from scratch."""
    from ..core.classifier import BagRelationClassifier
    from ..core.model import NeuralREModel

    if not isinstance(model, NeuralREModel):
        raise CheckpointError(
            f"only NeuralREModel instances can be checkpointed, got {type(model).__name__}"
        )
    base = model.base_model
    if not isinstance(base, BagRelationClassifier):
        raise CheckpointError(
            "checkpointing requires a BagRelationClassifier base model, "
            f"got {type(base).__name__}"
        )
    spec: Dict[str, Any] = {
        "kind": "neural_re_model",
        "encoder_type": base.encoder_type,
        "attention": bool(base.uses_attention),
        "word_attention": bool(getattr(base.encoder, "use_word_attention", False)),
        "vocab_size": int(base.embedder.word_embedding.num_embeddings),
        "num_relations": int(model.num_relations),
        "model_config": asdict(base.config),
        "type_head": None,
        "mutual_relation_head": None,
    }
    if model.type_head is not None:
        spec["type_head"] = {
            "num_types": int(model.type_head.num_types),
            "type_embedding_dim": int(model.type_head.type_embedding_dim),
        }
    if model.mutual_relation_head is not None:
        spec["mutual_relation_head"] = {
            "num_entities": int(model.mutual_relation_head.num_entities),
            "embedding_dim": int(model.mutual_relation_head.embedding_dim),
        }
    return spec


def _build_model(spec: Dict[str, Any], weights: Dict[str, np.ndarray]):
    """Rebuild a NeuralREModel from its manifest spec and weight arrays."""
    from ..config import ModelConfig
    from ..core.classifier import BagRelationClassifier
    from ..core.entity_type import EntityTypeHead
    from ..core.model import NeuralREModel
    from ..core.mutual_relation import MutualRelationHead

    if spec.get("kind") != "neural_re_model":
        raise CheckpointError(f"unknown model kind '{spec.get('kind')}' in manifest")
    try:
        config = ModelConfig(**spec["model_config"])
        base = BagRelationClassifier(
            vocab_size=int(spec["vocab_size"]),
            num_relations=int(spec["num_relations"]),
            config=config,
            encoder_type=spec["encoder_type"],
            attention=bool(spec["attention"]),
            word_attention=bool(spec["word_attention"]),
        )
        type_head = None
        if spec.get("type_head"):
            type_head = EntityTypeHead(
                num_types=int(spec["type_head"]["num_types"]),
                num_relations=int(spec["num_relations"]),
                type_embedding_dim=int(spec["type_head"]["type_embedding_dim"]),
            )
        mr_head = None
        if spec.get("mutual_relation_head"):
            if ENTITY_VECTORS_KEY not in weights:
                raise CheckpointError(
                    "manifest declares a mutual-relation head but weights.npz "
                    f"has no '{ENTITY_VECTORS_KEY}' table"
                )
            mr_head = MutualRelationHead(
                entity_vectors=weights[ENTITY_VECTORS_KEY],
                num_relations=int(spec["num_relations"]),
            )
        model = NeuralREModel(base, type_head=type_head, mutual_relation_head=mr_head)
        state = {k: v for k, v in weights.items() if k != ENTITY_VECTORS_KEY}
        model.load_state_dict(state, strict=True)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint weights do not match the manifest: {error}") from error
    model.eval()
    return model


# ---------------------------------------------------------------------- #
# Serving-component (encoder / schema / KB) encoding
# ---------------------------------------------------------------------- #
def _encoder_payload(encoder) -> Dict[str, Any]:
    return {
        "vocabulary": encoder.vocabulary.to_list(),
        "type_vocabulary": encoder.type_vocabulary.to_list(),
        "max_sentence_length": int(encoder.max_sentence_length),
        "max_position_distance": int(encoder.max_position_distance),
        "max_sentences_per_bag": (
            int(encoder.max_sentences_per_bag)
            if encoder.max_sentences_per_bag is not None
            else None
        ),
    }


def _build_encoder(payload: Dict[str, Any]):
    from ..corpus.loader import BagEncoder, TypeVocabulary
    from ..text.vocab import Vocabulary

    return BagEncoder(
        Vocabulary.from_list(payload["vocabulary"]),
        max_sentence_length=int(payload["max_sentence_length"]),
        max_position_distance=int(payload["max_position_distance"]),
        max_sentences_per_bag=payload.get("max_sentences_per_bag"),
        type_vocabulary=TypeVocabulary.from_list(payload["type_vocabulary"]),
    )


def _schema_payload(schema, kb) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "relations": [
            {
                "name": relation.name,
                "head_type": relation.head_type,
                "tail_type": relation.tail_type,
                "symmetric": bool(relation.symmetric),
            }
            for relation in schema
            if relation.name != "NA"  # RelationSchema re-adds NA itself
        ],
    }
    if kb is not None:
        payload["entities"] = [
            {"name": entity.name, "types": list(entity.types), "cluster": int(entity.cluster)}
            for entity in kb.entities
        ]
        payload["triples"] = [
            [int(triple.head_id), int(triple.relation_id), int(triple.tail_id)]
            for triple in kb.triples
        ]
    return payload


def _build_schema_and_kb(payload: Dict[str, Any]):
    from ..kb.knowledge_base import KnowledgeBase
    from ..kb.schema import RelationSchema, RelationType

    schema = RelationSchema(
        [
            RelationType(
                name=relation["name"],
                head_type=relation["head_type"],
                tail_type=relation["tail_type"],
                symmetric=bool(relation.get("symmetric", False)),
            )
            for relation in payload["relations"]
        ]
    )
    kb = None
    if "entities" in payload:
        kb = KnowledgeBase(schema=schema)
        for entity in payload["entities"]:
            kb.add_entity(entity["name"], entity["types"], cluster=int(entity.get("cluster", 0)))
        for head_id, relation_id, tail_id in payload.get("triples", []):
            kb.add_triple(int(head_id), int(relation_id), int(tail_id))
    return schema, kb


def _check_serving_components(spec: Dict[str, Any], encoder, schema) -> None:
    """Reject encoder/schema components inconsistent with the model at save time.

    A mismatched pair (e.g. a GDS-trained model saved with the NYT encoder)
    would pass every hash check and only fail — or silently mispredict — on
    the first served request.
    """
    if encoder is not None:
        vocab_size = len(encoder.vocabulary)
        if vocab_size != spec["vocab_size"]:
            raise CheckpointError(
                f"encoder vocabulary has {vocab_size} tokens but the model was "
                f"built for {spec['vocab_size']}; pass the training-time encoder"
            )
        if spec.get("type_head"):
            num_types = len(encoder.type_vocabulary)
            if num_types != spec["type_head"]["num_types"]:
                raise CheckpointError(
                    f"encoder type vocabulary has {num_types} types but the "
                    f"model's type head expects {spec['type_head']['num_types']}"
                )
    if schema is not None and schema.num_relations != spec["num_relations"]:
        raise CheckpointError(
            f"schema has {schema.num_relations} relations but the model "
            f"predicts {spec['num_relations']}; pass the training-time schema"
        )


# ---------------------------------------------------------------------- #
# Save / load
# ---------------------------------------------------------------------- #
def save_checkpoint(
    path: PathLike,
    model,
    encoder=None,
    schema=None,
    kb=None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a checkpoint directory for ``model``.

    ``encoder`` and ``schema`` (plus optionally ``kb``) make the checkpoint
    servable via :meth:`repro.serve.PredictionService.from_checkpoint`; a
    model-only checkpoint still round-trips through
    :meth:`repro.core.NeuralREModel.load`.  ``kb`` requires ``schema``.
    """
    from .. import __version__

    if kb is not None and schema is None:
        schema = kb.schema
    spec = _model_spec(model)
    _check_serving_components(spec, encoder, schema)
    path = Path(path).expanduser()
    if path.exists() and not path.is_dir():
        raise CheckpointError(f"checkpoint path {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)

    weights: Dict[str, np.ndarray] = model.state_dict()
    if model.mutual_relation_head is not None:
        weights[ENTITY_VECTORS_KEY] = np.array(
            model.mutual_relation_head._entity_vectors, copy=True
        )
    save_npz(path / WEIGHTS_FILE, weights)
    members = [WEIGHTS_FILE]

    # The bulk members (vocabulary, KB) are written compact: CPython only
    # takes its C encoder when ``indent`` is None.  The manifest stays
    # indented for people to read.
    if encoder is not None:
        (path / ENCODER_FILE).write_text(
            json.dumps(_encoder_payload(encoder), separators=_COMPACT), encoding="utf-8"
        )
        members.append(ENCODER_FILE)
    if schema is not None:
        (path / SCHEMA_FILE).write_text(
            json.dumps(_schema_payload(schema, kb), separators=_COMPACT), encoding="utf-8"
        )
        members.append(SCHEMA_FILE)

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "library_version": __version__,
        "model": spec,
        "files": {member: file_sha256(path / member) for member in members},
        "metadata": dict(metadata or {}),
    }
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    logger.info("saved checkpoint to %s (%d weight arrays)", path, len(weights))
    return path


def _manifest_header(path: Path) -> Dict[str, Any]:
    """Parse a checkpoint's manifest and check its format version."""
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"{path} is not a checkpoint (no {MANIFEST_FILE})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt checkpoint manifest {manifest_path}: {error}") from None
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} "
            f"(this library reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    return manifest


def _verified_members(path: Path, manifest: Dict[str, Any]) -> Dict[str, bytes]:
    """Read every member file once, verifying its recorded SHA-256."""
    members: Dict[str, bytes] = {}
    for member, expected in manifest.get("files", {}).items():
        member_path = path / member
        if not member_path.exists():
            raise CheckpointError(f"checkpoint member {member} is missing from {path}")
        data = member_path.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise CheckpointError(
                f"checkpoint member {member} is corrupt "
                f"(sha256 {actual[:12]}... != recorded {str(expected)[:12]}...)"
            )
        members[member] = data
    return members


def read_manifest(path: PathLike) -> Dict[str, Any]:
    """Read and validate a checkpoint's manifest (version + member hashes)."""
    path = Path(path).expanduser()
    manifest = _manifest_header(path)
    _verified_members(path, manifest)
    return manifest


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load a checkpoint directory saved by :func:`save_checkpoint`.

    Returns the rebuilt model (in eval mode) together with whatever serving
    components the checkpoint carries.  Predictions of the loaded model are
    bit-identical to the saved one: the weights are stored losslessly and
    inference uses no randomness.  Each member file is read from disk once —
    the bytes that are hash-verified are the bytes that get parsed.
    """
    path = Path(path).expanduser()
    manifest = _manifest_header(path)
    members = _verified_members(path, manifest)
    if WEIGHTS_FILE not in members:
        raise CheckpointError(f"checkpoint manifest lists no {WEIGHTS_FILE} member")
    try:
        with np.load(io.BytesIO(members[WEIGHTS_FILE]), allow_pickle=False) as data:
            weights = {key: np.array(data[key]) for key in data.files}
    except Exception as error:
        raise CheckpointError(f"cannot read checkpoint weights: {error}") from error
    model = _build_model(manifest["model"], weights)

    encoder = schema = kb = None
    if ENCODER_FILE in members:
        try:
            encoder = _build_encoder(json.loads(members[ENCODER_FILE].decode("utf-8")))
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(f"corrupt encoder member: {error}") from error
    if SCHEMA_FILE in members:
        try:
            schema, kb = _build_schema_and_kb(json.loads(members[SCHEMA_FILE].decode("utf-8")))
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(f"corrupt schema member: {error}") from error
    return Checkpoint(model=model, manifest=manifest, encoder=encoder, schema=schema, kb=kb)

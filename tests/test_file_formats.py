"""On-disk encodings of the npz/JSON artifact writers.

Two contracts:

* files written before the writers switched to stored (uncompressed) npz
  members and compact JSON — ``np.savez_compressed`` members, indented
  ``encoder.json``/``schema.json`` — still load bit-identically through
  today's readers;
* today's writers keep the cheap encodings: every ``save_npz`` member is
  ``ZIP_STORED`` and the checkpoint's bulk JSON members are single-line.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.corpus.store import _ALL_COLUMNS, CorpusStore
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.proximity import EntityProximityGraph
from repro.serve import PredictionService
from repro.utils.checkpoint import (
    ENCODER_FILE,
    MANIFEST_FILE,
    SCHEMA_FILE,
    WEIGHTS_FILE,
    _encoder_payload,
    _schema_payload,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from repro.utils.serialization import file_sha256, save_npz


def _rewrite_compressed(path) -> None:
    """Re-encode an npz the way the pre-change ``save_npz`` wrote it."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}


def _member_compression(path) -> set:
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def _save_servable(context, model, path):
    return save_checkpoint(
        path,
        model,
        encoder=context.bag_encoder,
        schema=context.bundle.schema,
        kb=context.bundle.kb,
    )


class TestPreChangeFilesLoad:
    def test_checkpoint(self, nyt_context, trained_pa_tmr, tmp_path):
        model = trained_pa_tmr[0].model
        path = _save_servable(nyt_context, model, tmp_path / "ckpt")
        _rewrite_compressed(path / WEIGHTS_FILE)
        for member in (ENCODER_FILE, SCHEMA_FILE):
            payload = json.loads((path / member).read_text(encoding="utf-8"))
            (path / member).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        manifest = json.loads((path / MANIFEST_FILE).read_text(encoding="utf-8"))
        manifest["files"] = {member: file_sha256(path / member) for member in manifest["files"]}
        (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2), encoding="utf-8")

        assert read_manifest(path)["files"] == manifest["files"]
        checkpoint = load_checkpoint(path)
        expected = model.state_dict()
        loaded = checkpoint.model.state_dict()
        assert loaded.keys() == expected.keys()
        for key, value in expected.items():
            np.testing.assert_array_equal(loaded[key], value, err_msg=key)
            assert loaded[key].dtype == value.dtype, key
        assert checkpoint.encoder.vocabulary.to_list() == nyt_context.bag_encoder.vocabulary.to_list()
        assert checkpoint.kb.num_triples == nyt_context.bundle.kb.num_triples

        bags = nyt_context.test_encoded[:16]
        np.testing.assert_array_equal(
            PredictionService.from_checkpoint(path).predict_encoded(bags),
            PredictionService.from_context(nyt_context, model).predict_encoded(bags),
        )

    def test_graph(self, nyt_context, tmp_path):
        graph = nyt_context.proximity_graph
        graph.save(tmp_path / "graph.npz")
        _rewrite_compressed(tmp_path / "graph.npz")
        loaded = EntityProximityGraph.load(tmp_path / "graph.npz")
        assert loaded.vertices == graph.vertices
        for ours, theirs in zip(loaded.csr_arrays(), graph.csr_arrays()):
            np.testing.assert_array_equal(ours, theirs)
        np.testing.assert_array_equal(loaded.degrees, graph.degrees)

    def test_embeddings(self, nyt_context, tmp_path):
        embeddings = nyt_context.entity_embeddings
        embeddings.save(tmp_path / "embeddings.npz")
        _rewrite_compressed(tmp_path / "embeddings.npz")
        loaded = EntityEmbeddings.load(tmp_path / "embeddings.npz")
        assert loaded.names == embeddings.names
        np.testing.assert_array_equal(loaded.vectors, embeddings.vectors)
        assert loaded.vectors.dtype == embeddings.vectors.dtype

    def test_corpus_store(self, nyt_context, tmp_path):
        store = nyt_context.train_encoded
        store.save(tmp_path / "corpus.npz")
        _rewrite_compressed(tmp_path / "corpus.npz")
        loaded = CorpusStore.load(tmp_path / "corpus.npz")
        for name in _ALL_COLUMNS:
            np.testing.assert_array_equal(
                getattr(loaded, name), np.asarray(getattr(store, name)), err_msg=name
            )


class TestWritersStayCheap:
    def test_save_npz_members_are_stored(self, tmp_path):
        path = save_npz(
            tmp_path / "arrays.npz",
            {
                "weights": np.linspace(0.0, 1.0, 4096).reshape(64, 64),
                "ids": np.zeros(4096, dtype=np.int64),
                "names": np.array(["a", "bb", "ccc"]),
            },
        )
        assert _member_compression(path) == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize(
        "saver",
        [
            lambda ctx, path: ctx.proximity_graph.save(path),
            lambda ctx, path: ctx.entity_embeddings.save(path),
            lambda ctx, path: ctx.train_encoded.save(path),
        ],
        ids=["graph", "embeddings", "corpus"],
    )
    def test_artifact_npz_members_are_stored(self, nyt_context, saver, tmp_path):
        saver(nyt_context, tmp_path / "artifact.npz")
        assert _member_compression(tmp_path / "artifact.npz") == {zipfile.ZIP_STORED}

    def test_checkpoint_bulk_json_is_compact(self, nyt_context, trained_pa_tmr, tmp_path):
        model = trained_pa_tmr[0].model
        path = _save_servable(nyt_context, model, tmp_path / "ckpt")
        assert _member_compression(path / WEIGHTS_FILE) == {zipfile.ZIP_STORED}
        expected = {
            ENCODER_FILE: _encoder_payload(nyt_context.bag_encoder),
            SCHEMA_FILE: _schema_payload(nyt_context.bundle.schema, nyt_context.bundle.kb),
        }
        for member, payload in expected.items():
            text = (path / member).read_text(encoding="utf-8")
            assert "\n" not in text, member
            assert json.loads(text) == payload, member
        # The manifest is for people: it stays indented.
        assert "\n" in (path / MANIFEST_FILE).read_text(encoding="utf-8")

"""Tests for the content-addressed artifact cache and the cached pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ScaleProfile
from repro.experiments.pipeline import (
    get_default_cache,
    prepare_context,
    set_default_cache,
)
from repro.graph.proximity import EntityProximityGraph
from repro.utils.artifacts import ArtifactCache, content_key


def _save_array(value, path):
    np.save(path, value)


def _load_array(path):
    return np.load(path)


class TestContentKey:
    def test_deterministic_and_order_independent(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_dataclasses_hash_like_their_dict(self):
        profile = ScaleProfile.tiny()
        from dataclasses import asdict

        assert content_key(profile) == content_key(asdict(profile))


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return np.arange(5.0)

        first = cache.get_or_build(
            "stage", {"seed": 0}, build, _save_array, _load_array, suffix="npy"
        )
        second = cache.get_or_build(
            "stage", {"seed": 0}, build, _save_array, _load_array, suffix="npy"
        )
        assert len(calls) == 1
        assert np.array_equal(first, second)
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_config_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return np.arange(3.0)

        cache.get_or_build("stage", {"seed": 0}, build, _save_array, _load_array, suffix="npy")
        cache.get_or_build("stage", {"seed": 1}, build, _save_array, _load_array, suffix="npy")
        assert len(calls) == 2
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_kinds_do_not_collide(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_build(
            "a", {"k": 0}, lambda: np.zeros(2), _save_array, _load_array, suffix="npy"
        )
        value = cache.get_or_build(
            "b", {"k": 0}, lambda: np.ones(2), _save_array, _load_array, suffix="npy"
        )
        assert np.array_equal(value, np.ones(2))

    def test_corrupt_file_is_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = {"seed": 0}
        cache.get_or_build("stage", key, lambda: np.arange(4.0), _save_array, _load_array, suffix="npy")
        cache.path_for("stage", key, suffix="npy").write_bytes(b"not a numpy file")

        value = cache.get_or_build(
            "stage", key, lambda: np.arange(4.0), _save_array, _load_array, suffix="npy"
        )
        assert np.array_equal(value, np.arange(4.0))
        assert cache.stats.corrupt == 1
        # The rebuilt file replaced the corrupt one, so the next call hits.
        cache.get_or_build("stage", key, lambda: np.arange(4.0), _save_array, _load_array, suffix="npy")
        assert cache.stats.hits == 1

    def test_disabled_cache_always_builds(self, tmp_path):
        cache = ArtifactCache(tmp_path, enabled=False)
        calls = []

        def build():
            calls.append(1)
            return np.zeros(1)

        cache.get_or_build("stage", {"k": 0}, build, _save_array, _load_array, suffix="npy")
        cache.get_or_build("stage", {"k": 0}, build, _save_array, _load_array, suffix="npy")
        assert len(calls) == 2
        assert not list(tmp_path.rglob("*.npy"))

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_build("stage", {"k": 0}, lambda: np.zeros(1), _save_array, _load_array, suffix="npy")
        assert cache.clear() == 1
        assert cache.clear() == 0


class TestCacheMaintenance:
    """list_versions / prune: the streaming ingest loop's disk hygiene."""

    @staticmethod
    def _populate(cache, kind, seeds):
        import os

        for order, seed in enumerate(seeds):
            cache.get_or_build(
                kind, {"seed": seed}, lambda: np.arange(4.0),
                _save_array, _load_array, suffix="npy",
            )
            path = cache.path_for(kind, {"seed": seed}, suffix="npy")
            os.utime(path, (1_000_000 + order, 1_000_000 + order))
            yield path

    def test_list_versions_orders_by_mtime_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage_paths = list(self._populate(cache, "stage", [0, 1, 2]))
        graph_paths = list(self._populate(cache, "graph", [0]))
        entries = cache.list_versions()
        assert [entry.path for entry in entries if entry.kind == "stage"] == stage_paths
        assert [entry.path for entry in entries if entry.kind == "graph"] == graph_paths
        assert all(entry.size_bytes > 0 for entry in entries)
        only_stage = cache.list_versions(kind="stage")
        assert [entry.path for entry in only_stage] == stage_paths
        assert cache.list_versions(kind="no-such-kind") == []

    def test_list_versions_skips_temporaries_and_sums_directories(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        list(self._populate(cache, "stage", [0]))
        (tmp_path / "stage" / ".partial.tmp-123").write_bytes(b"x")
        artifact_dir = tmp_path / "corpus" / "abc123"
        artifact_dir.mkdir(parents=True)
        (artifact_dir / "manifest.json").write_text("{}", encoding="utf-8")
        (artifact_dir / "shard-0.npy").write_bytes(b"y" * 100)
        # A directory without a manifest is in-progress, not an artifact.
        (tmp_path / "corpus" / "half-written").mkdir()
        entries = cache.list_versions()
        assert all(".tmp-" not in entry.path.name for entry in entries)
        [corpus_entry] = [entry for entry in entries if entry.kind == "corpus"]
        assert corpus_entry.path == artifact_dir
        assert corpus_entry.size_bytes == 100 + len("{}")

    def test_prune_keeps_newest_and_accounts_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage_paths = list(self._populate(cache, "stage", [0, 1, 2]))
        graph_paths = list(self._populate(cache, "graph", [0, 1]))
        doomed_bytes = sum(
            path.stat().st_size for path in stage_paths[:2] + graph_paths[:1]
        )
        removed = cache.prune(keep_last=1)
        assert removed == 3
        assert cache.stats.pruned == 3
        assert cache.stats.pruned_bytes == doomed_bytes
        survivors = [entry.path for entry in cache.list_versions()]
        assert survivors == [graph_paths[-1], stage_paths[-1]]
        # Surviving artifacts still load (hit, not a rebuild).
        cache.get_or_build(
            "stage", {"seed": 2}, lambda: np.arange(4.0),
            _save_array, _load_array, suffix="npy",
        )
        assert cache.stats.hits == 1

    def test_prune_scoped_to_one_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        list(self._populate(cache, "stage", [0, 1]))
        list(self._populate(cache, "graph", [0, 1]))
        assert cache.prune(keep_last=1, kind="stage") == 1
        assert len(cache.list_versions(kind="graph")) == 2
        assert len(cache.list_versions(kind="stage")) == 1

    def test_prune_validates_and_zero_keep_empties(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError, match=">= 0"):
            cache.prune(keep_last=-1)
        list(self._populate(cache, "stage", [0, 1]))
        assert cache.prune(keep_last=0) == 2
        assert cache.list_versions() == []
        assert cache.prune(keep_last=0) == 0  # idempotent on empty


class TestGraphPersistence:
    def test_round_trip(self, tmp_path, nyt_bundle):
        graph = EntityProximityGraph.from_counts(nyt_bundle.pair_cooccurrence)
        path = tmp_path / "graph.npz"
        graph.save(path)
        loaded = EntityProximityGraph.load(path)
        assert loaded.vertices == graph.vertices
        assert loaded.num_edges == graph.num_edges
        first, second, _ = graph.edges()[0]
        assert loaded.edge_weight(first, second) == pytest.approx(
            graph.edge_weight(first, second)
        )


class TestCachedPipeline:
    def test_second_context_hits_cache_and_matches(self, tmp_path, tiny_profile):
        cache = ArtifactCache(tmp_path)
        first = prepare_context("nyt", profile=tiny_profile, seed=0, cache=cache)
        assert cache.stats.misses == 4 and cache.stats.hits == 0

        rerun = ArtifactCache(tmp_path)
        second = prepare_context("nyt", profile=tiny_profile, seed=0, cache=rerun)
        assert rerun.stats.hits == 4 and rerun.stats.misses == 0

        assert np.allclose(
            first.entity_embeddings.vectors, second.entity_embeddings.vectors
        )
        assert first.proximity_graph.num_edges == second.proximity_graph.num_edges
        assert len(first.train_encoded) == len(second.train_encoded)
        for a, b in zip(first.test_encoded, second.test_encoded):
            assert np.array_equal(a.token_ids, b.token_ids)
            assert a.label == b.label

    def test_seed_change_misses(self, tmp_path, tiny_profile):
        cache = ArtifactCache(tmp_path)
        prepare_context("nyt", profile=tiny_profile, seed=0, cache=cache)
        prepare_context("nyt", profile=tiny_profile, seed=3, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 8

    def test_default_cache_is_used_and_restored(self, tmp_path, tiny_profile):
        cache = ArtifactCache(tmp_path)
        previous = set_default_cache(cache)
        try:
            prepare_context("nyt", profile=tiny_profile, seed=0)
        finally:
            set_default_cache(previous)
        assert cache.stats.misses == 4
        assert get_default_cache() is previous

"""Parity suites for the array-native graph engine.

The seed implementation (string-keyed dicts, sequential alias build, dense
propagation) lives on in :mod:`repro.graph.reference` as an executable
specification; these tests assert the vectorised implementations match it —
same weights, same sampled distributions, same propagated vectors up to
float round-off — and cover the error paths the refactor introduced
(missing-entity propagation, empty graphs, malformed bulk arrays).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.alias import AliasSampler, build_alias_tables
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.line import LineEmbeddingTrainer, LineConfig
from repro.graph.propagation import propagate_embeddings
from repro.graph.proximity import EntityProximityGraph
from repro.graph.reference import (
    ReferenceAliasSampler,
    ReferenceProximityGraph,
    reference_cooccurrence_counts,
    reference_propagate,
)
from repro.corpus.unlabeled import UnlabeledCorpusGenerator, UnlabeledSentence


def _random_counts(rng: np.random.Generator, num_entities: int = 120, num_pairs: int = 600):
    names = [f"entity_{i:04d}" for i in range(num_entities)]
    counts = {}
    for _ in range(num_pairs):
        first, second = rng.choice(num_entities, size=2, replace=False)
        key = (names[int(first)], names[int(second)])
        counts[key] = counts.get(key, 0) + int(rng.integers(1, 40))
    return counts


class TestGraphConstructionParity:
    """Vectorised np.unique construction vs the seed dict accumulation."""

    @pytest.fixture(scope="class")
    def graph_pair(self):
        counts = _random_counts(np.random.default_rng(7))
        return (
            EntityProximityGraph.from_counts(counts, min_cooccurrence=3),
            ReferenceProximityGraph.from_counts(counts, min_cooccurrence=3),
        )

    def test_same_vertices_and_edge_count(self, graph_pair):
        new, ref = graph_pair
        assert new.vertices == ref.vertices
        assert new.num_edges == ref.num_edges

    def test_same_edge_weights(self, graph_pair):
        new, ref = graph_pair
        for (first, second), weight in ref._weights.items():
            assert new.edge_weight(first, second) == pytest.approx(weight, abs=1e-15)

    def test_same_neighbors_and_degrees(self, graph_pair):
        new, ref = graph_pair
        for name in ref.vertices:
            reference_neighbors = ref.neighbors(name)
            neighbors = new.neighbors(name)
            assert set(neighbors) == set(reference_neighbors)
            for other, weight in reference_neighbors.items():
                assert neighbors[other] == pytest.approx(weight, abs=1e-15)
            assert new.degree(name) == pytest.approx(ref.degree(name), abs=1e-12)

    def test_degree_vector_matches(self, graph_pair):
        new, ref = graph_pair
        np.testing.assert_allclose(
            new.degree_vector(0.75), ref.degree_vector(0.75), atol=1e-12
        )

    def test_csr_consistent_with_edge_list(self, graph_pair):
        new, _ = graph_pair
        indptr, indices, weights = new.csr_arrays()
        assert indptr[-1] == indices.size == weights.size == 2 * new.num_edges
        # Cached degrees equal the CSR row sums.
        row_sums = np.add.reduceat(weights, indptr[:-1])
        np.testing.assert_allclose(new.degrees, row_sums, atol=1e-12)
        # Symmetry: every (i, j, w) has its (j, i, w) mirror.
        rows = np.repeat(np.arange(new.num_vertices), np.diff(indptr))
        forward = set(zip(rows.tolist(), indices.tolist(), weights.tolist()))
        assert all((j, i, w) in forward for i, j, w in forward)

    def test_bulk_pair_arrays_match_scalar_adds(self):
        rng = np.random.default_rng(3)
        counts = _random_counts(rng, num_entities=40, num_pairs=150)
        scalar = EntityProximityGraph()
        for (first, second), count in counts.items():
            scalar.add_cooccurrence(first, second, count)
        scalar.finalize()
        firsts = np.array([pair[0] for pair in counts], dtype=np.str_)
        seconds = np.array([pair[1] for pair in counts], dtype=np.str_)
        values = np.array(list(counts.values()), dtype=np.int64)
        bulk = EntityProximityGraph.from_pair_arrays(firsts, seconds, values)
        assert bulk.vertices == scalar.vertices
        for first, second, weight in scalar.edges():
            assert bulk.edge_weight(first, second) == pytest.approx(weight, abs=1e-15)

    def test_vectorized_sentence_counts_match_dict_loop(self, nyt_bundle):
        sentences = nyt_bundle.unlabeled_sentences
        vectorized = UnlabeledCorpusGenerator.cooccurrence_counts(sentences)
        reference = reference_cooccurrence_counts(
            [s.first_entity for s in sentences], [s.second_entity for s in sentences]
        )
        assert vectorized == reference

    def test_save_load_roundtrip_id_format(self, graph_pair, tmp_path):
        new, _ = graph_pair
        path = tmp_path / "graph.npz"
        new.save(path)
        loaded = EntityProximityGraph.load(path)
        assert loaded.vertices == new.vertices
        for arrays in zip(loaded.edge_arrays(), new.edge_arrays()):
            np.testing.assert_array_equal(*arrays)
        # Sub-threshold raw counts survive the roundtrip too.
        assert loaded.cooccurrence(*new.vertices[:2]) == new.cooccurrence(*new.vertices[:2])

    def test_load_rejects_unknown_format_version(self, tmp_path):
        from repro.utils.serialization import save_npz

        path = tmp_path / "future.npz"
        save_npz(
            path,
            {
                "format": np.array([99], dtype=np.int64),
                "entity_names": np.array(["a", "b"], dtype=np.str_),
                "pair_lo": np.array([0], dtype=np.int64),
                "pair_hi": np.array([1], dtype=np.int64),
                "counts": np.array([3], dtype=np.int64),
                "min_cooccurrence": np.array([1], dtype=np.int64),
            },
        )
        with pytest.raises(GraphError, match="format 99"):
            EntityProximityGraph.load(path)

    def test_bundle_pair_arrays_match_dict(self, nyt_bundle):
        assert nyt_bundle.pair_arrays is not None
        firsts, seconds, counts = nyt_bundle.pair_arrays
        as_dict = {
            (str(first), str(second)): int(count)
            for first, second, count in zip(firsts, seconds, counts)
        }
        assert as_dict == nyt_bundle.pair_cooccurrence

    def test_legacy_string_format_rejected(self, tmp_path):
        """The parallel string-array layout of early releases is not read."""
        from repro.utils.serialization import save_npz

        path = tmp_path / "legacy.npz"
        save_npz(
            path,
            {
                "firsts": np.array(["a", "a"], dtype=np.str_),
                "seconds": np.array(["b", "c"], dtype=np.str_),
                "counts": np.array([4, 2], dtype=np.int64),
                "min_cooccurrence": np.array([1], dtype=np.int64),
            },
        )
        with pytest.raises(GraphError, match="unrecognised"):
            EntityProximityGraph.load(path)


class TestAliasParity:
    """The vectorised build must encode exactly the input distribution."""

    @staticmethod
    def _bucket_mass(prob: np.ndarray, alias: np.ndarray) -> np.ndarray:
        mass = prob.copy()
        np.add.at(mass, alias, 1.0 - prob)
        return mass / prob.size

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tables_encode_exact_distribution(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(1000) * rng.integers(1, 100, size=1000)
        prob, alias = build_alias_tables(weights)
        np.testing.assert_allclose(
            self._bucket_mass(prob, alias), weights / weights.sum(), atol=1e-12
        )

    def test_matches_reference_distribution(self):
        rng = np.random.default_rng(5)
        weights = rng.random(500)
        new_mass = self._bucket_mass(*build_alias_tables(weights))
        reference_mass = self._bucket_mass(
            *(lambda s: (s._prob, s._alias))(ReferenceAliasSampler(weights))
        )
        np.testing.assert_allclose(new_mass, reference_mass, atol=1e-12)

    def test_single_dominant_weight(self):
        # One huge bucket absorbing thousands of tiny ones: the cascade
        # rounds must stay O(n) and the distribution exact.
        weights = np.concatenate([np.full(5000, 1e-7), [3.0]])
        prob, alias = build_alias_tables(weights)
        np.testing.assert_allclose(
            self._bucket_mass(prob, alias), weights / weights.sum(), atol=1e-12
        )

    def test_build_alias_tables_validates_inputs(self):
        with pytest.raises(ValueError):
            build_alias_tables(np.empty(0))
        with pytest.raises(ValueError):
            build_alias_tables(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            build_alias_tables(np.zeros(4))

    def test_chi_square_on_draws(self):
        weights = np.linspace(1.0, 20.0, 20)
        sampler = AliasSampler(weights)
        draws = sampler.sample(np.random.default_rng(11), size=200_000)
        observed = np.bincount(draws, minlength=20).astype(float)
        expected = weights / weights.sum() * draws.size
        statistic = float(((observed - expected) ** 2 / expected).sum())
        # 99.9th percentile of chi-square with 19 degrees of freedom.
        assert statistic < 43.82, f"chi-square statistic {statistic:.1f} too large"


class TestLineSampling:
    def test_trainer_edge_distribution_follows_weights(self):
        counts = _random_counts(np.random.default_rng(2), num_entities=30, num_pairs=80)
        graph = EntityProximityGraph.from_counts(counts)
        config = LineConfig(embedding_dim=8, epochs=1, batch_edges=16, seed=0)
        trainer = LineEmbeddingTrainer(graph, config)
        _, _, weights = graph.edge_arrays()
        draws = trainer._edge_sampler.sample(np.random.default_rng(0), size=100_000)
        frequencies = np.bincount(draws, minlength=weights.size) / draws.size
        np.testing.assert_allclose(frequencies, weights / weights.sum(), atol=0.01)

    def test_history_is_per_epoch(self):
        counts = _random_counts(np.random.default_rng(2), num_entities=30, num_pairs=80)
        graph = EntityProximityGraph.from_counts(counts)
        config = LineConfig(embedding_dim=8, epochs=7, batch_edges=4, seed=0)
        history = LineEmbeddingTrainer(graph, config).train()
        # O(epochs) aggregates regardless of the number of SGD steps.
        assert len(history["first_order_loss"]) == config.epochs
        assert len(history["second_order_loss"]) == config.epochs
        assert len(history["first_order_last_loss"]) == config.epochs
        assert all(np.isfinite(history["second_order_last_loss"]))

    def test_chunked_sampling_deterministic(self):
        counts = _random_counts(np.random.default_rng(4), num_entities=25, num_pairs=60)
        graph = EntityProximityGraph.from_counts(counts)
        config = LineConfig(embedding_dim=8, epochs=3, batch_edges=8, seed=9)
        first = LineEmbeddingTrainer(graph, config)
        first.train()
        second = LineEmbeddingTrainer(graph, config)
        second.train()
        np.testing.assert_array_equal(first.embedding_matrix(), second.embedding_matrix())

    def test_chunk_size_does_not_change_distribution_support(self):
        counts = _random_counts(np.random.default_rng(4), num_entities=25, num_pairs=60)
        graph = EntityProximityGraph.from_counts(counts)
        small_chunk = LineConfig(
            embedding_dim=8, epochs=5, batch_edges=8, sample_chunk_edges=8, seed=9
        )
        trainer = LineEmbeddingTrainer(graph, small_chunk)
        trainer.train()
        assert np.isfinite(trainer.embedding_matrix()).all()


class TestPropagationParity:
    @pytest.fixture(scope="class")
    def graph_and_embeddings(self):
        counts = _random_counts(np.random.default_rng(13), num_entities=80, num_pairs=300)
        graph = EntityProximityGraph.from_counts(counts)
        rng = np.random.default_rng(0)
        embeddings = EntityEmbeddings(
            graph.vertices, rng.standard_normal((graph.num_vertices, 24))
        )
        return graph, embeddings

    @pytest.mark.parametrize("num_layers,alpha", [(1, 0.5), (2, 0.3), (4, 0.0)])
    def test_csr_matches_dense_reference(self, graph_and_embeddings, num_layers, alpha):
        graph, embeddings = graph_and_embeddings
        sparse = propagate_embeddings(graph, embeddings, num_layers=num_layers, alpha=alpha)
        dense = reference_propagate(graph, embeddings, num_layers=num_layers, alpha=alpha)
        assert sparse.names == dense.names
        np.testing.assert_allclose(sparse.vectors, dense.vectors, atol=1e-10)

    def test_no_renormalize_parity(self, graph_and_embeddings):
        graph, embeddings = graph_and_embeddings
        sparse = propagate_embeddings(graph, embeddings, renormalize=False)
        dense = reference_propagate(graph, embeddings, renormalize=False)
        np.testing.assert_allclose(sparse.vectors, dense.vectors, atol=1e-10)

    def test_default_path_never_builds_dense_adjacency(
        self, graph_and_embeddings, monkeypatch
    ):
        import repro.graph.propagation as propagation_module

        def _forbidden(graph):  # pragma: no cover - would fail the test
            raise AssertionError("dense adjacency materialised on the default path")

        monkeypatch.setattr(propagation_module, "normalized_adjacency", _forbidden)
        graph, embeddings = graph_and_embeddings
        propagated = propagate_embeddings(graph, embeddings)
        assert len(propagated) == graph.num_vertices

    def test_missing_entity_raises_named_graph_error(self, graph_and_embeddings):
        graph, embeddings = graph_and_embeddings
        missing_name = graph.vertices[3]
        names = [name for name in embeddings.names if name != missing_name]
        partial = EntityEmbeddings(names, embeddings.vectors_for(names))
        with pytest.raises(GraphError, match=missing_name):
            propagate_embeddings(graph, partial)


class TestErrorPaths:
    def test_empty_graph_rejected_on_finalize(self):
        with pytest.raises(GraphError, match="proximity graph would be empty"):
            EntityProximityGraph().finalize()

    def test_bulk_arrays_with_nonpositive_counts_rejected(self):
        graph = EntityProximityGraph()
        with pytest.raises(GraphError, match="positive"):
            graph.add_pair_arrays(["a"], ["b"], [0])

    def test_bulk_arrays_misaligned_rejected(self):
        graph = EntityProximityGraph()
        with pytest.raises(GraphError):
            graph.add_pair_arrays(["a", "b"], ["c"])
        with pytest.raises(GraphError):
            graph.add_pair_arrays(["a", "b"], ["c", "d"], [1])

    def test_bulk_add_after_finalize_buffers(self):
        graph = EntityProximityGraph.from_counts({("a", "b"): 2})
        graph.add_pair_arrays(["x"], ["y"])
        assert graph.has_pending_updates
        assert graph.cooccurrence("x", "y") == 1
        assert not graph.has_vertex("x")  # finalized state untouched until merge
        graph.refinalize()
        assert graph.has_vertex("x")

    def test_vertex_ids_roundtrip_and_missing(self):
        graph = EntityProximityGraph.from_counts({("a", "b"): 2, ("b", "c"): 1})
        ids = graph.vertex_ids(["c", "a"])
        np.testing.assert_array_equal(ids, [2, 0])
        with pytest.raises(KeyError, match="zzz"):
            graph.vertex_ids(["a", "zzz"])

    def test_embeddings_bulk_lookup(self):
        embeddings = EntityEmbeddings(["a", "b"], np.arange(8.0).reshape(2, 4))
        matrix = embeddings.vectors_for(["b", "missing", "a"])
        np.testing.assert_allclose(matrix[0], embeddings.vector("b"))
        np.testing.assert_allclose(matrix[1], np.zeros(4))
        np.testing.assert_allclose(matrix[2], embeddings.vector("a"))
        with pytest.raises(KeyError, match="missing"):
            embeddings.vectors_for(["a", "missing"], strict=True)

    def test_embeddings_bulk_mutual_relations(self):
        embeddings = EntityEmbeddings(["a", "b", "c"], np.eye(3))
        relations = embeddings.mutual_relations(["a", "b"], ["b", "c"])
        np.testing.assert_allclose(relations[0], embeddings.mutual_relation("a", "b"))
        np.testing.assert_allclose(relations[1], embeddings.mutual_relation("b", "c"))
        with pytest.raises(GraphError):
            embeddings.mutual_relations(["a"], ["b", "c"])

    def test_cooccurrence_queryable_before_finalize(self):
        graph = EntityProximityGraph()
        graph.add_cooccurrence("a", "b", 2)
        graph.add_pair_arrays(["b", "a"], ["a", "c"], [3, 1])
        assert graph.cooccurrence("a", "b") == 5
        assert graph.cooccurrence("c", "a") == 1
        assert graph.cooccurrence("a", "z") == 0
        graph.finalize()
        assert graph.cooccurrence("a", "b") == 5

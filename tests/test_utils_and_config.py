"""Tests for shared utilities and configuration objects."""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pytest

from repro.config import (
    ExperimentConfig,
    GraphEmbeddingConfig,
    ModelConfig,
    ScaleProfile,
    TrainingConfig,
)
from repro.exceptions import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory, new_rng, spawn_rngs
from repro.utils.serialization import file_sha256, load_npz, save_npz
from repro.utils.tables import format_key_values, format_table


class TestRng:
    def test_new_rng_deterministic(self):
        assert new_rng(7).integers(1000) == new_rng(7).integers(1000)

    def test_spawn_rngs_independent(self):
        first, second = spawn_rngs(0, 2)
        assert first.integers(10**6) != second.integers(10**6)

    def test_spawn_requires_positive_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

    def test_seed_factory_name_stability(self):
        factory = SeedSequenceFactory(3)
        a = factory.rng("kb").integers(10**6)
        b = SeedSequenceFactory(3).rng("kb").integers(10**6)
        assert a == b

    def test_seed_factory_names_differ(self):
        factory = SeedSequenceFactory(3)
        assert factory.rng("kb").integers(10**6) != factory.rng("corpus").integers(10**6)

    def test_rngs_helper(self):
        factory = SeedSequenceFactory(1)
        streams = factory.rngs(["a", "b"])
        assert set(streams) == {"a", "b"}


class TestSerialization:
    def test_npz_roundtrip(self, tmp_path):
        arrays = {"weights": np.arange(6.0).reshape(2, 3), "bias": np.zeros(3)}
        path = save_npz(tmp_path / "model.npz", arrays)
        loaded = load_npz(path)
        np.testing.assert_allclose(loaded["weights"], arrays["weights"])

    def test_npz_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_npz(tmp_path / "missing.npz")

    def test_file_sha256_matches_hashlib(self, tmp_path):
        payload = np.random.default_rng(0).bytes(3 * (1 << 20) + 17)  # spans blocks
        (tmp_path / "blob").write_bytes(payload)
        (tmp_path / "empty").write_bytes(b"")
        assert file_sha256(tmp_path / "blob") == hashlib.sha256(payload).hexdigest()
        assert file_sha256(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["model", "AUC"], [["PCNN", 0.3296], ["PA-TMR", 0.3939]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all lines aligned

    def test_format_table_title(self):
        assert format_table(["a"], [[1]], title="Table IV").startswith("Table IV")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_key_values(self):
        text = format_key_values([("lr", 0.3), ("batch", 160)])
        assert "lr" in text and "160" in text


class TestLogging:
    def test_logger_namespace(self):
        logger = get_logger("training")
        assert logger.name == "repro.training"

    def test_root_logger(self):
        assert get_logger().name == "repro"
        assert isinstance(get_logger(), logging.Logger)


class TestModelConfig:
    def test_paper_defaults_match_table3(self):
        config = ModelConfig.paper_defaults()
        assert config.entity_embedding_dim == 128
        assert config.type_embedding_dim == 20
        assert config.window_size == 3
        assert config.num_filters == 230
        assert config.position_embedding_dim == 5
        assert config.word_embedding_dim == 50
        assert config.learning_rate == pytest.approx(0.3)
        assert config.max_sentence_length == 120
        assert config.dropout == pytest.approx(0.5)
        assert config.batch_size == 160

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(entity_embedding_dim=7).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(dropout=1.0).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(num_filters=0).validate()

    def test_scaled_configs_are_valid(self):
        for factor in (0.1, 0.25, 0.5, 1.0):
            ModelConfig.scaled(factor).validate()

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError):
            ModelConfig.scaled(0.0)

    def test_to_dict_roundtrip(self):
        config = ModelConfig.paper_defaults()
        assert config.to_dict()["num_filters"] == 230


class TestProfilesAndExperimentConfig:
    def test_profiles_ordering(self):
        tiny, small, medium = ScaleProfile.tiny(), ScaleProfile.small(), ScaleProfile.medium()
        assert tiny.nyt_num_entity_pairs < small.nyt_num_entity_pairs < medium.nyt_num_entity_pairs
        assert tiny.name == "tiny" and medium.name == "medium"

    def test_profile_training_config_valid(self):
        for profile in (ScaleProfile.tiny(), ScaleProfile.small(), ScaleProfile.medium()):
            profile.training_config(seed=1).validate()
            profile.model_config().validate()

    def test_graph_config_validation(self):
        with pytest.raises(ConfigurationError):
            GraphEmbeddingConfig(embedding_dim=5).validate()
        with pytest.raises(ConfigurationError):
            GraphEmbeddingConfig(min_cooccurrence=0).validate()
        GraphEmbeddingConfig().validate()

    def test_experiment_config_for_profile(self):
        config = ExperimentConfig.for_profile(ScaleProfile.tiny(), seed=5)
        config.validate()
        assert config.seed == 5
        assert config.graph.embedding_dim == config.model.entity_embedding_dim

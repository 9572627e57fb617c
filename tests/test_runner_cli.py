"""Tests for the ``python -m repro`` subcommands (argv parsing, JSON output,
exit codes)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec, RegisteredExperiment
from repro.experiments.results import ExperimentResult


@pytest.fixture()
def fake_registry(monkeypatch):
    """Replace the registry with two instant fake experiments."""
    calls = []

    def make(name):
        def fake_run(context_or_profile=None, seed=None, **params):
            calls.append((name, seed, params))
            return ExperimentResult(
                experiment=name,
                profile=getattr(context_or_profile, "name", "small"),
                seed=seed or 0,
                metrics={"ok": True},
                report=f"report of {name}",
                config_fingerprint=f"fp-{name}",
            )

        spec = ExperimentSpec(name=name, description=f"fake {name}", module="tests")
        return RegisteredExperiment(spec=spec, run=fake_run)

    fakes = {"alpha": make("alpha"), "beta": make("beta")}
    monkeypatch.setattr(registry, "_REGISTRY", fakes)
    monkeypatch.setattr(registry, "_builtins_loaded", True)
    return calls


class TestSubcommandRun:
    def test_real_json_round_trip(self, tmp_path, capsys):
        # A real (training-free) experiment end to end through the new CLI.
        code = cli.main(
            ["run", "table3", "--profile", "tiny", "--format", "json",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table3"
        assert payload["profile"] == "tiny"
        result = ExperimentResult.load(tmp_path / "table3.json")
        assert result.metrics == payload["metrics"]
        assert result.report == payload["report"]

    def test_multiple_experiments_emit_json_array(self, fake_registry, capsys):
        assert cli.main(["run", "alpha", "beta", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["experiment"] for entry in payload] == ["alpha", "beta"]

    def test_unknown_experiment_exit_code_2(self, capsys):
        assert cli.main(["run", "does_not_exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_names_the_choices(self, capsys):
        assert cli.main(["run", "nope"]) == 2
        assert "table4" in capsys.readouterr().err

    def test_seed_reaches_the_experiment(self, fake_registry, capsys):
        assert cli.main(["run", "alpha", "--profile", "tiny", "--seed", "3"]) == 0
        assert "report of alpha" in capsys.readouterr().out
        assert fake_registry == [("alpha", 3, {})]

    def test_all_runs_every_experiment(self, fake_registry, capsys):
        assert cli.main(["run", "all", "--profile", "tiny"]) == 0
        assert [call[0] for call in fake_registry] == ["alpha", "beta"]
        out = capsys.readouterr().out
        assert "report of alpha" in out and "report of beta" in out

    def test_table3_takes_seed(self, capsys):
        assert cli.main(["run", "table3", "--profile", "tiny", "--seed", "7"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_nothing_runs_when_any_name_is_unknown(self, fake_registry, capsys):
        assert cli.main(["run", "alpha", "gamma"]) == 2
        assert fake_registry == []

    def test_unknown_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "table3", "--profile", "galactic"])
        assert excinfo.value.code == 2

    def test_text_output_dir_writes_reports(self, fake_registry, tmp_path, capsys):
        assert cli.main(["run", "alpha", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "alpha.txt").read_text().startswith("report of alpha")


class TestSubcommandList:
    def test_list_text(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.available_experiments():
            assert name in out

    def test_list_json(self, capsys):
        assert cli.main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(registry.available_experiments())


@pytest.mark.slow
class TestTrainServeWorkflow:
    def test_train_then_serve_cold_start(self, tmp_path, capsys):
        """python -m repro train -> checkpoint -> python -m repro serve."""
        checkpoint = tmp_path / "ckpt"
        code = cli.main(
            ["train", "--method", "pcnn_att", "--dataset", "nyt", "--profile", "tiny",
             "--seed", "0", "--epochs", "1", "--checkpoint", str(checkpoint)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert (checkpoint / "manifest.json").exists()

        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {
                        "head": "alice",
                        "tail": "seattle",
                        "sentences": ["alice lives in seattle"],
                    },
                    {
                        "head": "bob",
                        "tail": "acme",
                        "sentences": [[["bob", "works", "at", "acme"], 0, 3]],
                    },
                ]
            )
        )
        output = tmp_path / "predictions.json"
        code = cli.main(
            ["serve", "--checkpoint", str(checkpoint), "--requests", str(requests),
             "--top-k", "2", "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert len(payload) == 2
        for entry in payload:
            assert len(entry["predictions"]) == 2
            for prediction in entry["predictions"]:
                assert 0.0 <= prediction["confidence"] <= 1.0

        # Malformed request files are usage errors (exit 2), not crashes.
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        assert cli.main(["serve", "--checkpoint", str(checkpoint),
                         "--requests", str(bad)]) == 2
        assert "JSON array" in capsys.readouterr().err

        # A bare token list (no positions) is rejected up front, not via a
        # raw unpacking traceback deep in the service.
        bad.write_text(json.dumps(
            [{"head": "a", "tail": "b", "sentences": [["just", "some", "tokens"]]}]
        ))
        assert cli.main(["serve", "--checkpoint", str(checkpoint),
                         "--requests", str(bad)]) == 2
        assert "triple" in capsys.readouterr().err
        bad.write_text(json.dumps([{"head": "a", "tail": "b", "sentences": "a b"}]))
        assert cli.main(["serve", "--checkpoint", str(checkpoint),
                         "--requests", str(bad)]) == 2

    def test_train_backend_flag_pins_fast_training(self, tmp_path, capsys):
        """``train --backend fast`` produces a servable float64 checkpoint."""
        checkpoint = tmp_path / "ckpt"
        code = cli.main(
            ["train", "--method", "pcnn_att", "--dataset", "nyt", "--profile", "tiny",
             "--seed", "0", "--epochs", "1", "--backend", "fast",
             "--checkpoint", str(checkpoint)]
        )
        assert code == 0
        assert "checkpoint:" in capsys.readouterr().out
        from repro.core.model import NeuralREModel

        model = NeuralREModel.load(checkpoint)
        for param in model.parameters():
            assert param.data.dtype == np.float64

    def test_train_backend_flag_rejects_unknown(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--method", "pcnn_att", "--profile", "tiny",
             "--backend", "warp-drive", "--checkpoint", str(tmp_path / "ckpt")]
        )
        assert code == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_serve_missing_checkpoint_exits_1(self, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text("[]")
        assert cli.main(["serve", "--checkpoint", str(tmp_path / "none"),
                         "--requests", str(requests)]) == 1
        assert "not a checkpoint" in capsys.readouterr().err

    def test_train_rejects_feature_methods(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--method", "mintz", "--profile", "tiny",
             "--checkpoint", str(tmp_path / "ckpt")]
        )
        assert code == 2
        assert "checkpointable" in capsys.readouterr().err

    def test_train_fails_fast_before_any_training(self, tmp_path, capsys, monkeypatch):
        # Unknown and non-checkpointable methods must be rejected before the
        # (expensive) pipeline runs — make prepare_context a loud tripwire.
        import repro.cli as cli_module
        from repro.experiments import pipeline

        monkeypatch.setattr(
            pipeline, "prepare_context",
            lambda *a, **k: pytest.fail("prepare_context ran before validation"),
        )
        for method in ("not_a_method", "cnn_rl", "multir"):
            code = cli_module.main(
                ["train", "--method", method, "--profile", "tiny",
                 "--checkpoint", str(tmp_path / "ckpt")]
            )
            assert code == 2, method

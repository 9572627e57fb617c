"""Smoke tests for the runnable example scripts and ``python -m repro run``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


class TestExampleScripts:
    def test_examples_directory_contents(self):
        scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "dataset_statistics.py",
            "case_study_embeddings.py",
            "predict_single_pair.py",
            "serve_batch.py",
        } <= scripts
        assert len(scripts) >= 5

    def test_dataset_statistics_runs(self):
        result = _run("dataset_statistics.py", "--profile", "tiny")
        assert result.returncode == 0, result.stderr
        assert "Table II" in result.stdout
        assert "Figure 1" in result.stdout

    @pytest.mark.slow
    def test_quickstart_runs(self):
        result = _run("quickstart.py", "--profile", "tiny")
        assert result.returncode == 0, result.stderr
        assert "PA-TMR" in result.stdout or "AUC" in result.stdout

    @pytest.mark.slow
    def test_serve_batch_runs(self, tmp_path):
        result = _run(
            "serve_batch.py", "--profile", "tiny", "--cache-dir", str(tmp_path / "cache")
        )
        assert result.returncode == 0, result.stderr
        assert "batched passes" in result.stdout
        # Second run must reuse the cached graph/LINE/encoded artifacts.
        rerun = _run(
            "serve_batch.py", "--profile", "tiny", "--cache-dir", str(tmp_path / "cache")
        )
        assert rerun.returncode == 0, rerun.stderr
        assert "cache hit" in rerun.stderr

    def test_case_study_runs(self, tmp_path):
        result = _run(
            "case_study_embeddings.py", "--profile", "tiny", "--output", str(tmp_path / "proj.csv")
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "proj.csv").exists()


class TestRunnerCli:
    """``python -m repro run`` as a user runs it, in a subprocess."""

    def test_runner_table3(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table3", "--profile", "tiny"],
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "Table III" in result.stdout

    @pytest.mark.slow
    def test_runner_cache_dir_reuses_artifacts(self, tmp_path):
        command = [
            sys.executable, "-m", "repro", "run", "figure7", "--profile", "tiny",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        first = subprocess.run(
            command, capture_output=True, text=True, timeout=600, check=False
        )
        assert first.returncode == 0, first.stderr
        assert "cache miss" in first.stderr
        assert "'hits': 0" in first.stdout

        second = subprocess.run(
            command, capture_output=True, text=True, timeout=600, check=False
        )
        assert second.returncode == 0, second.stderr
        assert "cache hit" in second.stderr
        assert "'misses': 0" in second.stdout

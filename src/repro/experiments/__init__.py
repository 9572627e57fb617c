"""Experiment modules — one per table / figure of the paper's evaluation.

Every module exposes two layers:

* ``run(...)`` — the raw computation, returning plain data structures, and
  ``format_report(...)`` rendering the same rows/series the paper reports
  (used directly by the benchmark harness under ``benchmarks/``);
* ``run_experiment(context_or_profile=None, seed=None, **params)`` — the
  uniform entry point registered in :mod:`repro.experiments.registry`,
  returning a structured :class:`~repro.experiments.results.ExperimentResult`
  (metrics + rendered report + provenance).

``python -m repro run <experiment>`` dispatches by name through the
registry.

=============  =======================================================
module         reproduces
=============  =======================================================
``table2``     Table II  — dataset statistics
``table3``     Table III — hyper-parameter settings
``figure1``    Figure 1  — long tail of entity-pair frequencies
``table4``     Table IV  — AUC / P / R / F1 / P@N of all methods
``figure4``    Figure 4  — precision-recall curves
``figure5``    Figure 5  — flexibility: +T/+MR on other base models
``figure6``    Figure 6  — F1 vs. unlabeled co-occurrence quantile
``figure7``    Figure 7  — F1 vs. number of training sentences
``case_study`` Table V / Figure 8 — nearest entities in embedding space
=============  =======================================================
"""

from .pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .registry import (
    ExperimentSpec,
    available_experiments,
    experiment,
    experiment_specs,
    get_experiment,
)
from .results import ExperimentResult

__all__ = [
    "ExperimentContext",
    "prepare_context",
    "train_and_evaluate",
    "ExperimentSpec",
    "ExperimentResult",
    "experiment",
    "available_experiments",
    "experiment_specs",
    "get_experiment",
]

"""Figure 4 — precision-recall curves of all methods on both datasets.

The PR curves come from the same held-out evaluation as Table IV; this module
extracts them and renders a downsampled (recall, precision) series per method
so the curves can be compared textually or re-plotted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ScaleProfile
from ..eval.heldout import EvaluationResult
from ..utils.tables import format_table
from .pipeline import ExperimentContext, resolve_context_datasets
from .registry import experiment
from .table4 import TABLE4_METHODS, run as run_table4


def run(
    datasets: Sequence[str] = ("nyt", "gds"),
    methods: Sequence[str] = TABLE4_METHODS,
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    contexts: Optional[Dict[str, ExperimentContext]] = None,
) -> Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """Return ``{dataset: {method: (precision, recall)}}``."""
    table4_results = run_table4(
        datasets=datasets, methods=methods, profile=profile, seed=seed, contexts=contexts
    )
    curves: Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]] = {}
    for dataset, method_results in table4_results.items():
        curves[dataset] = {
            method: result.pr_curve for method, result in method_results.items()
        }
    return curves


def sample_curve(
    precision: np.ndarray,
    recall: np.ndarray,
    recall_points: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
) -> List[Tuple[float, float]]:
    """Precision at selected recall levels (how Figure 4 is usually summarised)."""
    samples: List[Tuple[float, float]] = []
    for target in recall_points:
        reached = np.nonzero(recall >= target)[0]
        if reached.size == 0:
            samples.append((target, float("nan")))
        else:
            # Best precision achievable at or beyond the target recall.
            samples.append((target, float(precision[reached[0]:].max())))
    return samples


def format_report(
    curves: Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]],
    recall_points: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
) -> str:
    """Render precision at fixed recall levels, one table per dataset."""
    sections = []
    for dataset, method_curves in curves.items():
        rows = []
        for method, (precision, recall) in method_curves.items():
            samples = sample_curve(precision, recall, recall_points)
            rows.append([method] + [value for _, value in samples])
        headers = ["method"] + [f"P@R={point:.2f}" for point in recall_points]
        sections.append(
            format_table(
                headers,
                rows,
                title=f"Figure 4 — precision at fixed recall levels on {dataset}",
            )
        )
    return "\n\n".join(sections)


DEFAULT_RECALL_POINTS: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


@experiment(
    name="figure4",
    description="Figure 4 — precision at fixed recall levels (PR curves) per method",
    report_kind="figure",
    params={"datasets": ["nyt", "gds"], "methods": list(TABLE4_METHODS)},
)
def run_experiment(
    profile,
    seed,
    context=None,
    datasets: Optional[Sequence[str]] = None,
    methods: Sequence[str] = TABLE4_METHODS,
    recall_points: Sequence[float] = DEFAULT_RECALL_POINTS,
):
    """Uniform entry point: sampled PR curves as (metrics, report).

    ``datasets`` resolves like :func:`repro.experiments.table4.run_experiment`.
    """
    datasets, contexts = resolve_context_datasets(context, datasets)
    curves = run(datasets=datasets, methods=methods, profile=profile, seed=seed, contexts=contexts)
    metrics = {
        dataset: {
            method: {
                "num_points": int(len(precision)),
                "precision_at_recall": [
                    [float(target), float(value)]
                    for target, value in sample_curve(precision, recall, recall_points)
                ],
            }
            for method, (precision, recall) in method_curves.items()
        }
        for dataset, method_curves in curves.items()
    }
    return metrics, format_report(curves, recall_points)

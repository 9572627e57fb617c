"""Table IV — performance comparison of all methods on both datasets.

For every method the paper reports AUC (area under the PR curve), precision,
recall and F1 at the max-F1 operating point, and P@100 / P@200.  This module
trains the requested methods on the shared experiment context and produces
the same rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import ScaleProfile
from ..eval.heldout import EvaluationResult
from ..utils.tables import format_table
from .pipeline import (
    ExperimentContext,
    evaluate_methods,
    prepare_context,
    resolve_context_datasets,
)
from .registry import experiment

# The methods of the paper's Table IV, in row order.
TABLE4_METHODS: Sequence[str] = (
    "pcnn",
    "pcnn_att",
    "bgwa",
    "cnn_rl",
    "pa_t",
    "pa_mr",
    "pa_tmr",
)

# The paper's reported AUC values, kept for the EXPERIMENTS.md comparison of
# shapes (ordering / relative gains), never for numeric assertions.
PAPER_AUC = {
    "NYT": {
        "pcnn": 0.3296,
        "pcnn_att": 0.3424,
        "bgwa": 0.3670,
        "cnn_rl": 0.3735,
        "pa_t": 0.3572,
        "pa_mr": 0.3635,
        "pa_tmr": 0.3939,
    },
    "GDS": {
        "pcnn": 0.7798,
        "pcnn_att": 0.8034,
        "bgwa": 0.8148,
        "cnn_rl": 0.8554,
        "pa_t": 0.8512,
        "pa_mr": 0.8571,
        "pa_tmr": 0.8646,
    },
}


def run(
    datasets: Sequence[str] = ("nyt", "gds"),
    methods: Sequence[str] = TABLE4_METHODS,
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    contexts: Optional[Dict[str, ExperimentContext]] = None,
) -> Dict[str, Dict[str, EvaluationResult]]:
    """Train and evaluate ``methods`` on each dataset.

    Returns ``{dataset: {method: EvaluationResult}}``.  Pass pre-built
    ``contexts`` (keyed by dataset name) to reuse datasets/embeddings across
    experiments.
    """
    profile = profile or ScaleProfile.small()
    results: Dict[str, Dict[str, EvaluationResult]] = {}
    for dataset in datasets:
        if contexts is not None and dataset in contexts:
            context = contexts[dataset]
        else:
            context = prepare_context(dataset, profile=profile, seed=seed)
            if contexts is not None:
                contexts[dataset] = context
        results[dataset] = evaluate_methods(context, methods)
    return results


def format_report(results: Dict[str, Dict[str, EvaluationResult]]) -> str:
    """Render the Table IV layout (per dataset)."""
    sections: List[str] = []
    for dataset, method_results in results.items():
        rows = [result.summary_row() for result in method_results.values()]
        sections.append(
            format_table(
                ["method", "AUC", "precision", "recall", "F1", "P@100", "P@200"],
                rows,
                title=f"Table IV — performance comparison on {dataset}",
            )
        )
    return "\n\n".join(sections)


def improvement_over_baseline(
    results: Dict[str, EvaluationResult],
    proposed: str = "pa_tmr",
    baseline: str = "pcnn_att",
) -> float:
    """AUC improvement of the proposed model over its base (shape check)."""
    if proposed not in results or baseline not in results:
        raise KeyError("both the proposed and the baseline method must be evaluated")
    return results[proposed].auc - results[baseline].auc


@experiment(
    name="table4",
    description="Table IV — AUC / P / R / F1 / P@N of all methods on both datasets",
    report_kind="table",
    params={"datasets": ["nyt", "gds"], "methods": list(TABLE4_METHODS)},
)
def run_experiment(
    profile,
    seed,
    context=None,
    datasets: Optional[Sequence[str]] = None,
    methods: Sequence[str] = TABLE4_METHODS,
):
    """Uniform entry point: per-dataset, per-method evaluation metrics.

    ``datasets`` defaults to both synthetic corpora, or to the prebuilt
    context's own dataset when one is passed (naming other datasets
    alongside a context is rejected).
    """
    datasets, contexts = resolve_context_datasets(context, datasets)
    results = run(datasets=datasets, methods=methods, profile=profile, seed=seed, contexts=contexts)
    metrics = {
        dataset: {method: result.to_dict() for method, result in method_results.items()}
        for dataset, method_results in results.items()
    }
    return metrics, format_report(results)

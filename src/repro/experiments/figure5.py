"""Figure 5 — flexibility of the framework.

The paper attaches the entity-type and implicit-mutual-relation components to
several base models (GRU+ATT, CNN+ATT, PCNN, PCNN+ATT) and shows a 2-7% AUC
improvement for every one of them.  This module trains each base model with
and without the components and reports the per-base improvement.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import ScaleProfile
from ..utils.tables import format_table
from .pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .registry import experiment

# Base models of Figure 5 and their augmented counterparts.
FIGURE5_BASES: Sequence[str] = ("gru_att", "cnn_att", "pcnn", "pcnn_att")


def run(
    dataset: str = "nyt",
    bases: Sequence[str] = FIGURE5_BASES,
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """AUC of every base model with and without the +T+MR components.

    Returns ``{base: {"base_auc": ..., "augmented_auc": ..., "improvement": ...}}``.
    """
    if context is None:
        context = prepare_context(dataset, profile=profile or ScaleProfile.small(), seed=seed)
    results: Dict[str, Dict[str, float]] = {}
    for base in bases:
        _, base_result = train_and_evaluate(context, base)
        _, augmented_result = train_and_evaluate(context, f"{base}+tmr")
        results[base] = {
            "base_auc": base_result.auc,
            "augmented_auc": augmented_result.auc,
            "improvement": augmented_result.auc - base_result.auc,
            "base_f1": base_result.f1,
            "augmented_f1": augmented_result.f1,
        }
    return results


def format_report(results: Dict[str, Dict[str, float]], dataset: str = "nyt") -> str:
    """Render the Figure 5 comparison."""
    rows = []
    for base, values in results.items():
        rows.append(
            [
                base,
                values["base_auc"],
                values["augmented_auc"],
                values["improvement"],
                values["base_f1"],
                values["augmented_f1"],
            ]
        )
    return format_table(
        ["base model", "AUC", "AUC +T+MR", "ΔAUC", "F1", "F1 +T+MR"],
        rows,
        title=f"Figure 5 — improvement from entity information on {dataset}",
    )


def fraction_improved(results: Dict[str, Dict[str, float]]) -> float:
    """Fraction of base models whose AUC improves with the components."""
    if not results:
        return 0.0
    improved = sum(1 for values in results.values() if values["improvement"] > 0)
    return improved / len(results)


@experiment(
    name="figure5",
    description="Figure 5 — AUC gain from +T/+MR components on every base model",
    report_kind="figure",
    params={"dataset": "nyt", "bases": list(FIGURE5_BASES)},
)
def run_experiment(
    profile,
    seed,
    context=None,
    dataset: str = "nyt",
    bases: Sequence[str] = FIGURE5_BASES,
):
    """Uniform entry point: per-base improvement metrics and report."""
    results = run(dataset=dataset, bases=bases, profile=profile, seed=seed, context=context)
    metrics = {
        "dataset": dataset,
        "bases": results,
        "fraction_improved": fraction_improved(results),
    }
    return metrics, format_report(results, dataset=dataset)

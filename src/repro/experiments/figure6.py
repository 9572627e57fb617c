"""Figure 6 — effect of the unlabeled-corpus co-occurrence frequency.

Test entity pairs are grouped into quantiles of their co-occurrence frequency
in the *unlabeled* corpus; the F1-score of PA-TMR (and, for reference, its
base PCNN+ATT) is reported per quantile.  The paper observes an upward trend:
pairs that co-occur more often in the unlabeled corpus get better implicit
mutual relations and therefore better extractions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import ScaleProfile
from ..eval.buckets import bucket_f1_by_cooccurrence
from ..utils.tables import format_table
from .pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .registry import experiment


def run(
    dataset: str = "nyt",
    methods: Sequence[str] = ("pcnn_att", "pa_tmr"),
    num_buckets: int = 4,
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """F1 per co-occurrence quantile for each method.

    Returns ``{method: {"Q1": f1, ..., "Qn": f1}}`` with Q1 the least frequent
    quantile.
    """
    if context is None:
        context = prepare_context(dataset, profile=profile or ScaleProfile.small(), seed=seed)
    results: Dict[str, Dict[str, float]] = {}
    for name in methods:
        method, _ = train_and_evaluate(context, name)
        results[name] = bucket_f1_by_cooccurrence(
            context.evaluator,
            method.predict_probabilities,
            context.bundle,
            num_buckets=num_buckets,
            model_name=name,
        )
    return results


def format_report(results: Dict[str, Dict[str, float]], dataset: str = "nyt") -> str:
    """Render F1 per quantile, one row per method."""
    if not results:
        return "no results"
    buckets = list(next(iter(results.values())).keys())
    rows = [[name] + [values[bucket] for bucket in buckets] for name, values in results.items()]
    return format_table(
        ["method"] + buckets,
        rows,
        title=(
            f"Figure 6 — F1 by unlabeled-corpus co-occurrence quantile on {dataset} "
            "(Q1 = least frequent)"
        ),
    )


def trend_is_upward(per_bucket_f1: Dict[str, float]) -> bool:
    """Whether F1 in the most frequent quantile beats the least frequent one."""
    buckets = sorted(per_bucket_f1)
    if len(buckets) < 2:
        return False
    return per_bucket_f1[buckets[-1]] >= per_bucket_f1[buckets[0]]


@experiment(
    name="figure6",
    description="Figure 6 — F1 by unlabeled-corpus co-occurrence quantile",
    report_kind="figure",
    params={"dataset": "nyt", "methods": ["pcnn_att", "pa_tmr"], "num_buckets": 4},
)
def run_experiment(
    profile,
    seed,
    context=None,
    dataset: str = "nyt",
    methods: Sequence[str] = ("pcnn_att", "pa_tmr"),
    num_buckets: int = 4,
):
    """Uniform entry point: per-quantile F1 metrics and report."""
    results = run(
        dataset=dataset,
        methods=methods,
        num_buckets=num_buckets,
        profile=profile,
        seed=seed,
        context=context,
    )
    metrics = {
        "dataset": dataset,
        "f1_by_quantile": results,
        "trend_upward": {name: trend_is_upward(values) for name, values in results.items()},
    }
    return metrics, format_report(results, dataset=dataset)

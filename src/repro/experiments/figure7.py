"""Figure 7 — effect of inadequate training sentences.

Test entity pairs are grouped by how many distant-supervision sentences their
bag contains; PA-TMR and PCNN+ATT are compared per bucket.  The paper's
finding is that PA-TMR's advantage is largest for pairs with very few
training sentences, because the implicit mutual relations supply evidence the
text alone cannot.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import ScaleProfile
from ..eval.buckets import bucket_f1_by_sentence_count
from ..utils.tables import format_table
from .pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .registry import experiment

DEFAULT_EDGES: Sequence[int] = (1, 2, 3, 5, 8)


def run(
    dataset: str = "nyt",
    methods: Sequence[str] = ("pcnn_att", "pa_tmr"),
    edges: Sequence[int] = DEFAULT_EDGES,
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """F1 per training-sentence-count bucket for each method."""
    if context is None:
        context = prepare_context(dataset, profile=profile or ScaleProfile.small(), seed=seed)
    results: Dict[str, Dict[str, float]] = {}
    for name in methods:
        method, _ = train_and_evaluate(context, name)
        results[name] = bucket_f1_by_sentence_count(
            context.evaluator,
            method.predict_probabilities,
            context.test_encoded,
            edges=edges,
            model_name=name,
        )
    return results


def format_report(results: Dict[str, Dict[str, float]], dataset: str = "nyt") -> str:
    """Render F1 per bucket, one row per method."""
    if not results:
        return "no results"
    buckets = list(next(iter(results.values())).keys())
    rows = [[name] + [values[bucket] for bucket in buckets] for name, values in results.items()]
    return format_table(
        ["method"] + [f"{bucket} sent." for bucket in buckets],
        rows,
        title=f"Figure 7 — F1 by number of training sentences per pair on {dataset}",
    )


def advantage_on_infrequent_pairs(
    results: Dict[str, Dict[str, float]],
    proposed: str = "pa_tmr",
    baseline: str = "pcnn_att",
) -> float:
    """PA-TMR minus PCNN+ATT F1 on the smallest bucket (shape check for Figure 7)."""
    if proposed not in results or baseline not in results:
        raise KeyError("both methods must be present in the results")
    buckets = list(results[proposed].keys())
    first = buckets[0]
    return results[proposed][first] - results[baseline][first]


@experiment(
    name="figure7",
    description="Figure 7 — F1 by number of training sentences per entity pair",
    report_kind="figure",
    params={"dataset": "nyt", "methods": ["pcnn_att", "pa_tmr"], "edges": list(DEFAULT_EDGES)},
)
def run_experiment(
    profile,
    seed,
    context=None,
    dataset: str = "nyt",
    methods: Sequence[str] = ("pcnn_att", "pa_tmr"),
    edges: Sequence[int] = DEFAULT_EDGES,
):
    """Uniform entry point: per-bucket F1 metrics and report."""
    results = run(
        dataset=dataset, methods=methods, edges=edges, profile=profile, seed=seed, context=context
    )
    metrics = {"dataset": dataset, "f1_by_sentence_count": results}
    if len(methods) >= 2 and "pa_tmr" in results and "pcnn_att" in results:
        metrics["advantage_on_infrequent_pairs"] = advantage_on_infrequent_pairs(results)
    return metrics, format_report(results, dataset=dataset)

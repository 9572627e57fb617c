"""Ablation experiments beyond the paper's headline tables.

DESIGN.md calls out two design choices worth isolating:

* **LINE order ablation** — the paper concatenates first- and second-order
  proximity embeddings; how much does each order contribute on its own?
* **Attention ablation** — selective attention is the paper's noise
  mitigation; how much of PA-TMR's gain survives without it (i.e. attaching
  T+MR to the plain PCNN)?
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import ScaleProfile
from ..eval.heldout import EvaluationResult
from ..graph.embeddings import train_entity_embeddings
from ..graph.line import LineConfig
from ..utils.tables import format_table
from .pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .registry import experiment

LINE_ORDERS: Sequence[str] = ("first", "second", "both")


def run_line_order_ablation(
    dataset: str = "nyt",
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    context: Optional[ExperimentContext] = None,
    orders: Sequence[str] = LINE_ORDERS,
) -> Dict[str, float]:
    """AUC of PA-MR with first-order-only, second-order-only and concatenated embeddings."""
    if context is None:
        context = prepare_context(dataset, profile=profile or ScaleProfile.small(), seed=seed)
    line_config = LineConfig(
        embedding_dim=context.model_config.entity_embedding_dim,
        epochs=3,
        batch_edges=256,
        seed=seed,
    )
    results: Dict[str, float] = {}
    original_embeddings = context.entity_embeddings
    try:
        for order in orders:
            context.entity_embeddings = train_entity_embeddings(
                context.proximity_graph, line_config, order=order
            )
            context._method_cache.pop("pa_mr", None)
            _, result = train_and_evaluate(context, "pa_mr", use_cache=False)
            results[order] = result.auc
    finally:
        context.entity_embeddings = original_embeddings
        context._method_cache.pop("pa_mr", None)
    return results


def run_attention_ablation(
    dataset: str = "nyt",
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    context: Optional[ExperimentContext] = None,
) -> Dict[str, EvaluationResult]:
    """PCNN vs PCNN+T+MR vs PCNN+ATT vs PA-TMR (attention on/off × heads on/off)."""
    if context is None:
        context = prepare_context(dataset, profile=profile or ScaleProfile.small(), seed=seed)
    methods = {
        "pcnn": "pcnn",
        "pcnn+tmr": "pcnn+tmr",
        "pcnn_att": "pcnn_att",
        "pa_tmr": "pa_tmr",
    }
    return {label: train_and_evaluate(context, name)[1] for label, name in methods.items()}


def format_line_order_report(results: Dict[str, float]) -> str:
    rows = [[order, auc] for order, auc in results.items()]
    return format_table(
        ["embedding order", "PA-MR AUC"],
        rows,
        title="Ablation — LINE first/second order contribution",
    )


def format_attention_report(results: Dict[str, EvaluationResult]) -> str:
    rows = [[label, result.auc, result.f1] for label, result in results.items()]
    return format_table(
        ["configuration", "AUC", "F1"],
        rows,
        title="Ablation — selective attention vs entity-information heads",
    )


@experiment(
    name="ablations",
    description="Ablations — LINE order contribution and attention vs. entity heads",
    report_kind="analysis",
    params={"dataset": "nyt", "line_orders": list(LINE_ORDERS)},
)
def run_experiment(
    profile,
    seed,
    context=None,
    dataset: str = "nyt",
    line_orders: Sequence[str] = LINE_ORDERS,
    include_line_order: bool = True,
    include_attention: bool = True,
):
    """Uniform entry point: both ablations as (metrics, report).

    ``include_line_order`` / ``include_attention`` let cheap smoke runs skip
    one of the (training-heavy) halves; ``line_orders`` restricts how many
    PA-MR retrainings the LINE ablation performs.
    """
    if context is None:
        context = prepare_context(dataset, profile=profile, seed=seed)
    metrics: Dict[str, object] = {"dataset": dataset}
    sections = []
    if include_line_order:
        line_results = run_line_order_ablation(context=context, seed=seed, orders=line_orders)
        metrics["line_order_auc"] = line_results
        sections.append(format_line_order_report(line_results))
    if include_attention:
        attention_results = run_attention_ablation(context=context, seed=seed)
        metrics["attention"] = {
            label: result.to_dict(include_curve=False)
            for label, result in attention_results.items()
        }
        sections.append(format_attention_report(attention_results))
    return metrics, "\n\n".join(sections)

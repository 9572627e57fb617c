"""Table V / Figure 8 — case study of the entity embedding space.

The paper inspects the embeddings learned on the entity proximity graph:
the nearest neighbours of *Seattle* are mostly US cities, the nearest
neighbours of *University of Washington* are mostly universities, and the
mutual-relation vector of (University of Washington, Seattle) is close to
that of other (university, city) pairs.  The synthetic knowledge base
includes the same named entities so this module reproduces the Table V
nearest-neighbour lists, the analogous-pair ranking, and the Figure 8
3-D projection (as data rather than a screenshot).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ScaleProfile
from ..graph.embeddings import EntityEmbeddings
from ..kb.generator import CASE_STUDY_LOCATED_IN
from ..utils.tables import format_table
from .pipeline import ExperimentContext, prepare_context
from .registry import experiment

DEFAULT_QUERIES: Sequence[str] = ("university_of_washington", "seattle")


def run(
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    queries: Sequence[str] = DEFAULT_QUERIES,
    top_k: int = 10,
    context: Optional[ExperimentContext] = None,
) -> Dict[str, object]:
    """Nearest neighbours, analogous pairs and a 3-D projection of the embeddings."""
    if context is None:
        context = prepare_context("nyt", profile=profile or ScaleProfile.small(), seed=seed)
    embeddings = context.entity_embeddings

    neighbours: Dict[str, List[Tuple[str, float]]] = {}
    for query in queries:
        if query in embeddings:
            neighbours[query] = embeddings.nearest(query, k=top_k)
        else:
            neighbours[query] = []

    analogous = analogous_pair_ranking(embeddings)
    names, projection = embeddings.projection(dimensions=3)
    return {
        "neighbours": neighbours,
        "analogous_pairs": analogous,
        "projection_names": names,
        "projection": projection,
    }


def analogous_pair_ranking(
    embeddings: EntityEmbeddings,
    query_pair: Tuple[str, str] = ("university_of_washington", "seattle"),
    top_k: int = 5,
) -> List[Tuple[Tuple[str, str], float]]:
    """Rank the other case-study (university, city) pairs by MR-vector similarity."""
    if query_pair[0] not in embeddings or query_pair[1] not in embeddings:
        return []
    candidates = [pair for pair in CASE_STUDY_LOCATED_IN if pair != query_pair]
    return embeddings.analogous_pairs(query_pair[0], query_pair[1], candidates, k=top_k)


def neighbour_type_purity(
    neighbours: Sequence[Tuple[str, float]],
    expected_markers: Sequence[str],
) -> float:
    """Fraction of neighbours whose name contains one of the expected markers.

    A light-weight stand-in for "most nearest entities of Seattle are cities":
    in the synthetic KB, location entities contain the markers ``location`` /
    a case-study city name, university entities contain ``university`` /
    ``education``.
    """
    if not neighbours:
        return 0.0
    hits = sum(
        1
        for name, _ in neighbours
        if any(marker in name for marker in expected_markers)
    )
    return hits / len(neighbours)


def format_report(results: Dict[str, object]) -> str:
    """Render the Table V style nearest-neighbour lists and the pair ranking."""
    sections: List[str] = []
    neighbours: Dict[str, List[Tuple[str, float]]] = results["neighbours"]  # type: ignore[assignment]
    for query, nearest in neighbours.items():
        rows = [[rank + 1, name, score] for rank, (name, score) in enumerate(nearest)]
        sections.append(
            format_table(
                ["rank", "entity", "cosine"],
                rows,
                title=f"Table V — nearest entities of '{query}' in the embedding space",
            )
        )
    analogous: List[Tuple[Tuple[str, str], float]] = results["analogous_pairs"]  # type: ignore[assignment]
    rows = [[f"({head}, {tail})", score] for (head, tail), score in analogous]
    sections.append(
        format_table(
            ["candidate pair", "MR-vector cosine"],
            rows,
            title="Implicit mutual relation of (university_of_washington, seattle) "
            "vs. other located-in pairs",
        )
    )
    projection: np.ndarray = results["projection"]  # type: ignore[assignment]
    sections.append(
        f"Figure 8 — 3-D PCA projection computed for {projection.shape[0]} entities "
        "(first three principal components; export with EntityEmbeddings.projection)."
    )
    return "\n\n".join(sections)


@experiment(
    name="case_study",
    description="Table V / Figure 8 — nearest entities and analogous pairs in embedding space",
    report_kind="analysis",
    params={"queries": list(DEFAULT_QUERIES), "top_k": 10},
)
def run_experiment(
    profile,
    seed,
    context=None,
    queries: Sequence[str] = DEFAULT_QUERIES,
    top_k: int = 10,
):
    """Uniform entry point: embedding-space case study as (metrics, report)."""
    results = run(profile=profile, seed=seed, queries=queries, top_k=top_k, context=context)
    neighbours: Dict[str, List[Tuple[str, float]]] = results["neighbours"]  # type: ignore[assignment]
    analogous: List[Tuple[Tuple[str, str], float]] = results["analogous_pairs"]  # type: ignore[assignment]
    projection: np.ndarray = results["projection"]  # type: ignore[assignment]
    metrics = {
        "neighbours": {
            query: [[name, float(score)] for name, score in nearest]
            for query, nearest in neighbours.items()
        },
        "analogous_pairs": [
            [[head, tail], float(score)] for (head, tail), score in analogous
        ],
        "projection": {
            "entities": list(results["projection_names"]),  # type: ignore[arg-type]
            "coordinates": np.asarray(projection, dtype=float).tolist(),
        },
    }
    return metrics, format_report(results)

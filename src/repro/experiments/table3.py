"""Table III — hyper-parameter settings.

The defaults of :class:`repro.config.ModelConfig` are exactly the values of
the paper's Table III; this module renders them (and the scaled-down values a
given profile actually uses) so experiment logs document both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import ModelConfig, ScaleProfile
from ..utils.tables import format_table
from .registry import experiment

# (symbol, description, ModelConfig attribute) in the order of Table III.
TABLE3_ROWS: List[Tuple[str, str, str]] = [
    ("ke", "Embedding vector size", "entity_embedding_dim"),
    ("kt", "Entity type embedding size", "type_embedding_dim"),
    ("l", "Window size", "window_size"),
    ("k", "CNN filters number", "num_filters"),
    ("kp", "POS embedding dimension", "position_embedding_dim"),
    ("kw", "Word embedding dimension", "word_embedding_dim"),
    ("lr", "Learning rate", "learning_rate"),
    ("max_len", "Sentence max length", "max_sentence_length"),
    ("p", "Dropout probability", "dropout"),
    ("n", "Batch size", "batch_size"),
]


def run(profile: Optional[ScaleProfile] = None, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Return the paper's settings and the profile-scaled settings side by side.

    The settings themselves are deterministic functions of the profile;
    ``seed`` is accepted (and recorded by the uniform entry point) so table3
    reruns carry the same provenance as every other experiment.
    """
    paper = ModelConfig.paper_defaults()
    scaled = (profile or ScaleProfile.small()).model_config()
    return {
        "paper": {attr: getattr(paper, attr) for _, _, attr in TABLE3_ROWS},
        "scaled": {attr: getattr(scaled, attr) for _, _, attr in TABLE3_ROWS},
    }


def format_report(settings: Dict[str, Dict[str, float]]) -> str:
    """Render the Table III parameter listing."""
    rows = []
    for symbol, description, attr in TABLE3_ROWS:
        rows.append(
            [symbol, description, settings["paper"][attr], settings["scaled"][attr]]
        )
    return format_table(
        ["symbol", "description", "paper value", "this run"],
        rows,
        title="Table III — parameter settings",
    )


@experiment(
    name="table3",
    description="Table III — hyper-parameter settings (paper values vs. this run)",
    report_kind="table",
)
def run_experiment(profile, seed, context=None):
    """Uniform entry point: parameter settings as (metrics, report)."""
    settings = run(profile, seed=seed)
    return {"settings": settings}, format_report(settings)

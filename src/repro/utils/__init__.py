"""Shared utilities: seeding, logging, serialization, caching and tables."""

from .arrays import factorize_names
from .artifacts import ArtifactCache, CacheStats, content_key, default_cache_dir
from .rng import SeedSequenceFactory, new_rng, spawn_rngs
from .serialization import load_npz, save_npz
from .logging import get_logger
from .tables import format_table

__all__ = [
    "factorize_names",
    "new_rng",
    "spawn_rngs",
    "SeedSequenceFactory",
    "save_npz",
    "load_npz",
    "get_logger",
    "format_table",
    "ArtifactCache",
    "CacheStats",
    "content_key",
    "default_cache_dir",
]

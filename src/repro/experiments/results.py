"""Structured experiment results.

Every experiment registered in :mod:`repro.experiments.registry` returns an
:class:`ExperimentResult`: the machine-readable metrics behind a paper table
or figure (per-method :class:`repro.eval.heldout.EvaluationResult` data,
histograms, per-bucket scores, ...) together with the rendered text report,
the configuration that produced them and a content fingerprint of that
configuration.  Results round-trip through JSON (``to_json``/``from_json``,
``save``/``load``), which is what ``python -m repro run --format json
--output-dir ...`` writes — benchmark trajectories no longer have to be
parsed back out of text reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Union

from ..exceptions import DataError


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None`` so the encoding is strict JSON.

    Experiments legitimately produce NaN (empty evaluation buckets, recall
    targets a curve never reaches); Python's ``json`` would emit a literal
    ``NaN`` token that jq/JavaScript/strict parsers reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value

PathLike = Union[str, Path]

#: Schema version of the JSON encoding; bump on incompatible layout changes.
RESULT_FORMAT_VERSION = 1


@dataclass
class ExperimentResult:
    """One experiment run: metrics, rendered report and provenance.

    Attributes
    ----------
    experiment:
        Registry name of the experiment (``"table4"``, ``"figure6"``, ...).
    profile:
        Name of the :class:`repro.config.ScaleProfile` the run used.
    seed:
        Random seed of the run (deterministic reruns reproduce the metrics).
    params:
        The JSON-encodable keyword parameters the experiment ran with
        (non-serialisable arguments such as prebuilt contexts are omitted).
    metrics:
        Machine-readable payload; the exact shape is per-experiment and
        documented in ``docs/api.md``.  Always JSON-encodable.
    report:
        The rendered text table/figure, as ``python -m repro run`` prints
        it.
    config_fingerprint:
        Content hash of (experiment, profile, seed, params) — two results
        with equal fingerprints came from the same configuration.
    duration_seconds:
        Wall-clock duration of the run.
    """

    experiment: str
    profile: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    report: str = ""
    config_fingerprint: str = ""
    duration_seconds: float = 0.0
    format_version: int = RESULT_FORMAT_VERSION

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict encoding (strict-JSON-ready; non-finite floats become null)."""
        return _json_safe(asdict(self))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        if not isinstance(payload, dict) or "experiment" not in payload:
            raise DataError("not an ExperimentResult payload (missing 'experiment')")
        try:
            version = int(payload.get("format_version", RESULT_FORMAT_VERSION))
        except (TypeError, ValueError):
            raise DataError(
                f"invalid format_version {payload.get('format_version')!r} "
                "in ExperimentResult payload"
            ) from None
        if version > RESULT_FORMAT_VERSION:
            raise DataError(
                f"ExperimentResult format version {version} is newer than the "
                f"supported version {RESULT_FORMAT_VERSION}"
            )
        known = {name for name in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        kwargs = {key: value for key, value in payload.items() if key in known}
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise DataError(f"incomplete ExperimentResult payload: {error}") from None

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON encoding of :meth:`to_dict` (no NaN/Infinity tokens)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise DataError(f"invalid ExperimentResult JSON: {error}") from None
        return cls.from_dict(payload)

    def save(self, path: PathLike) -> Path:
        """Write the result as JSON to ``path`` (parent dirs are created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentResult":
        """Read a result saved by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise DataError(f"experiment result not found: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))

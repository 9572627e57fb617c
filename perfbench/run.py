"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_serve --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` pairs every unit of work with a twin run under the layer
wrappers of ``benchtrace`` and reports the per-layer metrics instead: layer
self times, the tracing overhead, the coverage and the daemon's latencies.  The last line of standard output is one
JSON object; a fuller record (provenance, every phase's numbers, the spans
of a traced run) goes to ``perfbench/out/``.  A failed output check exits
with status 1.
"""

from __future__ import annotations

import os

# One BLAS thread for every workload: on a small machine the daemon's worker,
# the load generator and BLAS threads otherwise fight over the same cores.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS
# The ambient compute backend must not come from the caller's environment.
os.environ.pop("REPRO_BACKEND", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from benchtrace import LAYERS, Tracer  # noqa: E402

# Metric names and units come from BENCHMARK.json, which the checkout's root holds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

# Phases whose layer self times a traced run reports.  Times are per report
# unit of the phase: per epoch (train), per scoring pass (score), per graph
# preparation (graph), per round (ingest), per context build (setup); the
# daemon's layers are reported per request and per batch by its phase.
TIMED_PHASES = ("setup", "train", "score", "graph", "ingest")


def provenance() -> dict:
    """Machine, library and source versions this run measured."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": int(BLAS_THREADS),
        },
        "git_commit": commit,
    }


def layer_rows(tracer: Tracer, result: W.Run):
    """(phase, layer self times per report unit, coverage, tracing overhead,
    traced seconds per report unit) for each timed phase."""
    for phase in TIMED_PHASES:
        layers = LAYERS[phase]
        totals = tracer.layer_self_times(phase)
        if phase == "setup":
            # The first build pays the process's one-time costs; compare the
            # traced (second) build with the third.
            reports, traced = 1.0, [result.traced_build_seconds]
            plain = result.build_seconds[1:]
        else:
            measured = result.phases[phase]
            reports, traced, plain = measured.reports(), measured.traced_seconds, measured.seconds
        per_unit = {layer: totals.get(layer, 0.0) / reports for layer in layers}
        coverage = sum(totals.values()) / sum(traced)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        yield phase, per_unit, coverage, overhead, sum(traced) / reports


def layer_metrics(tracer: Tracer, result: W.Run) -> dict:
    """Per-layer self times per unit, coverage and overhead of a traced run."""
    for phase in LAYERS:
        tracer.check_layers(phase)
    metrics = {}
    for phase, per_unit, coverage, overhead, wall in layer_rows(tracer, result):
        metrics.update({f"{phase}.{layer}_s": value for layer, value in per_unit.items()})
        metrics[f"{phase}.coverage"] = coverage
        metrics[f"{phase}.overhead"] = overhead
        if phase == "train":
            metrics["train.other_s"] = wall - sum(per_unit.values())
    metrics.update({k: v for k, v in result.metrics.items() if k in PER_LAYER})
    return metrics


def layer_table(tracer: Tracer, result: W.Run) -> str:
    lines = [f"{'phase':<7} {'layer':<15} {'s/unit':>10} {'share':>8}"]
    for phase, per_unit, coverage, overhead, wall in layer_rows(tracer, result):
        for layer, value in per_unit.items():
            lines.append(f"{phase:<7} {layer:<15} {value:10.5f} {value / wall:8.1%}")
        lines.append(f"{phase:<7} {'(coverage)':<15} {wall:10.5f} {coverage:8.1%}"
                     f"   tracing overhead {overhead:+.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # Anything the program writes to a temporary directory stays in the checkout.
    tempfile.tempdir = str(workdir)
    tracer = Tracer() if args.trace else None
    record = {
        "workload": args.workload,
        "why": W.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
    }
    correct = True
    result = None
    started = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            result = W.run(args.workload, args.seed, args.seconds, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except W.CheckFailed as error:
        print(f"output check failed: {error}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["wall_s"] = time.perf_counter() - started

    phases = result.phases if result is not None else {}
    attempted = sum(phase.attempted for phase in phases.values())
    failed = sum(phase.failed for phase in phases.values())
    if result is None:
        wanted, metrics = {}, {}
    elif tracer is not None:
        wanted, metrics = PER_LAYER, layer_metrics(tracer, result)
        print(layer_table(tracer, result))
    else:
        wanted, metrics = END_TO_END, result.metrics
    if result is not None:
        record["setup_build_s"] = result.build_seconds
        record["all_metrics"] = result.metrics
        record["phases"] = {
            name: {"units": len(phase.seconds), "attempted": phase.attempted,
                   "failed": phase.failed, "unit_seconds": phase.seconds}
            for name, phase in phases.items()
        }
    out = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in wanted.items() if name in metrics
        },
    }
    record["result"] = out
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]
        ))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if correct:
        for name, value in out["metrics"].items():
            print(f"{name:<36} {value['value']:14.4f} {value['unit']}")
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
            return 1
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

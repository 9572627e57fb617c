"""Self-tests of the benchmark's helpers: percentiles, open-loop lateness
accounting, span self time and the layer wrappers.  The workloads
themselves run only through ``perfbench/run.py``."""

from __future__ import annotations

import inspect
import sys
import types
from pathlib import Path

import pytest

from benchstats import (
    OpenLoop,
    highest_supported_percentile,
    percentile,
    require_percentile,
    samples_beyond,
    self_times,
)
from benchtrace import TARGETS, Tracer, TraceTargetMissing

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(reversed(values)), 90) == 90


def test_require_percentile_refuses_a_thin_tail():
    assert require_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="10 samples beyond"):
        require_percentile(list(range(999)), 99)


# ---------------------------------------------------------------------- #
# Open-loop lateness under a fake clock
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0
        self.slept = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_on_time_when_sends_are_free():
    clock = FakeClock()
    sent = []
    dues, lateness = OpenLoop([0.0, 0.001, 0.002, 0.003], clock, clock.sleep).run(
        lambda index, due: sent.append((index, clock.now, due))
    )
    assert dues == pytest.approx([100.0, 100.001, 100.002, 100.003])
    assert lateness == [0.0, 0.0, 0.0, 0.0]
    assert [index for index, _, _ in sent] == [0, 1, 2, 3]
    assert all(now == pytest.approx(due) for _, now, due in sent)


def test_open_loop_lateness_accumulates_when_the_sender_is_slow():
    clock = FakeClock()

    def send(_index, _due):
        clock.now += 0.0025  # each send costs 2.5 ms against a 1 ms schedule

    dues, lateness = OpenLoop([0.000, 0.001, 0.002, 0.003], clock, clock.sleep).run(send)
    assert lateness == pytest.approx([0.0, 0.0015, 0.003, 0.0045])
    assert clock.slept == []  # it never caught up, so it never slept


def test_open_loop_stall_delays_later_requests_until_caught_up():
    clock = FakeClock()

    def send(index, _due):
        if index == 1:
            clock.now += 0.0045  # one 4.5 ms stall

    _, lateness = OpenLoop([0.001 * i for i in range(8)], clock, clock.sleep).run(send)
    assert lateness == pytest.approx([0.0, 0.0, 0.0035, 0.0025, 0.0015, 0.0005, 0.0, 0.0])


# ---------------------------------------------------------------------- #
# Span self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
        ("b", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])


# ---------------------------------------------------------------------- #
# Layer wrappers
# ---------------------------------------------------------------------- #
@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("perfbench_toy")

    class Engine:
        def outer(self, n):
            return module.inner(n) + 1

        @classmethod
        def build(cls, n):
            return cls(), n

    def inner(n):
        return n * 2

    module.Engine = Engine
    module.inner = inner
    module.REGISTRY = {"run": inner}
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    return module


def _toy_targets():
    return (
        ("perfbench_toy", "Engine", "outer", {"score": "forward"}),
        ("perfbench_toy", "Engine", "build", {"score": "forward"}),
        ("perfbench_toy", "", "inner", {"score": "merge"}),
        ("perfbench_toy", "REGISTRY", "run", {"train": "loss"}),
    )


def test_tracer_records_nested_spans_only_in_mapped_phases(toy_module):
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    originals = {name: inspect.getattr_static(toy_module.Engine, name) for name in ("outer", "build")}
    tracer.install(_toy_targets())
    try:
        engine = toy_module.Engine()
        assert engine.outer(3) == 7           # no phase: nothing recorded
        assert tracer.spans == []
        tracer.phase = "score"
        assert engine.outer(3) == 7
        assert toy_module.Engine.build(4)[1] == 4
        assert toy_module.REGISTRY["run"](5) == 10  # mapped to "train" only
        tracer.phase = None
    finally:
        tracer.uninstall()
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("score.forward", -1), ("score.merge", 0), ("score.forward", -1)]
    # outer spans ticks 0..3 and its child inner 1..2: self times 2 and 1.
    assert tracer.layer_self_times("score") == pytest.approx({"forward": 3.0, "merge": 1.0})
    assert tracer.span_counts("score") == {"forward": 2, "merge": 1}
    for name, raw in originals.items():
        assert inspect.getattr_static(toy_module.Engine, name) is raw
    assert not hasattr(toy_module.inner, "__wrapped__")
    assert not hasattr(toy_module.REGISTRY["run"], "__wrapped__")


def test_tracer_probe_sees_arguments_and_result(toy_module):
    tracer = Tracer()
    seen = []
    tracer.probes["score.merge"] = lambda args, result, start, end: seen.append((args, result))
    tracer.install(_toy_targets())
    try:
        tracer.phase = "score"
        toy_module.inner(21)
    finally:
        tracer.uninstall()
    assert seen == [((21,), 42)]


def test_missing_wrap_target_fails_loudly(toy_module):
    del toy_module.inner
    with pytest.raises(TraceTargetMissing, match="perfbench_toy:inner"):
        Tracer().install(_toy_targets()[2:3])
    with pytest.raises(TraceTargetMissing, match="gone"):
        Tracer().install((("perfbench_toy", "Engine", "forward", {"score": "forward"}),))


def test_a_layer_that_records_nothing_fails_the_run(toy_module):
    tracer = Tracer()
    tracer.install(_toy_targets()[:2])
    try:
        tracer.phase = "score"
        toy_module.Engine().outer(1)
    finally:
        tracer.uninstall()
    with pytest.raises(TraceTargetMissing, match="merge"):
        tracer.check_layers("score")


def test_every_wrap_target_exists_in_repro(monkeypatch):
    if str(SRC) not in sys.path:
        monkeypatch.syspath_prepend(str(SRC))
    tracer = Tracer()
    tracer.install(TARGETS)
    tracer.uninstall()
    import repro.serve.service as service

    assert not hasattr(service.batched_predict_probabilities, "__wrapped__")
    assert not hasattr(service.PredictionService.predict_encoded, "__wrapped__")

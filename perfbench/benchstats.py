"""Small statistics helpers for the benchmark: percentiles, open-loop pacing
and span self time.  Pure Python/NumPy; nothing here imports ``repro``."""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Sequence, Tuple

# Candidate latency percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` sorted samples lie above the ``percentile`` rank."""
    return count - math.ceil(count * percentile / 100.0)


def highest_supported_percentile(
    count: int, candidates: Sequence[float] = PERCENTILES, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The highest candidate percentile with at least ``min_beyond`` samples
    beyond it, or ``None`` when even the lowest candidate lacks them."""
    supported = [p for p in candidates if samples_beyond(count, p) >= min_beyond]
    return max(supported) if supported else None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p`` percent of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def require_percentile(values: Sequence[float], p: float) -> float:
    """``percentile`` that refuses a sample too small to support ``p``."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples give {samples_beyond(len(values), p)}"
        )
    return percentile(values, p)


# ---------------------------------------------------------------------- #
# Open-loop load generation
# ---------------------------------------------------------------------- #
class OpenLoop:
    """Sends requests on a fixed schedule, whatever the system answers.

    ``offsets`` are the due times of each request relative to the start.
    The generator sleeps until each due time and then calls ``send``; when
    it cannot keep up (a slow ``send``, a scheduler stall) later requests go
    out late, and that lateness is recorded rather than hidden, because the
    caller times each request from its *due* time.
    """

    def __init__(
        self,
        offsets: Sequence[float],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.offsets = list(offsets)
        self.clock = clock
        self.sleep = sleep

    def run(self, send: Callable[[int, float], None]) -> Tuple[List[float], List[float]]:
        """Drive ``send(index, due)`` for every offset; returns (dues, lateness)."""
        start = self.clock()
        dues: List[float] = []
        lateness: List[float] = []
        for index, offset in enumerate(self.offsets):
            due = start + offset
            now = self.clock()
            if now < due:
                self.sleep(due - now)
                now = self.clock()
            dues.append(due)
            lateness.append(max(0.0, now - due))
            send(index, due)
        return dues, lateness


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` holds ``(name, start, end, parent)`` rows, where ``parent`` is
    the index of the enclosing span or ``-1``.  Children are nested inside
    their parent on one thread, so their durations never overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


"""Statistics helpers of the benchmark: percentiles and lateness.

Every timing is reported as a median plus a tail percentile, and a tail
percentile is only as good as the samples beyond it: with ``n`` samples
the benchmark reports at most the percentile that leaves ten samples
above it, and always states ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Percentile:
    """One reported percentile: its level, value and the sample count."""

    level: float
    value: float
    n: int

    def describe(self, unit: str) -> str:
        return f"p{self.level:g}={self.value:.4g} {unit} (n={self.n})"


def percentile(samples: Sequence[float], level: float) -> float:
    """Linear-interpolation percentile (``level`` in 0..100) of non-empty samples."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= level <= 100.0:
        raise ValueError(f"percentile level must lie in [0, 100], got {level}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * level / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_level(n: int, wanted: float = 99.0) -> float:
    """Highest percentile level <= ``wanted`` leaving ``MIN_TAIL_SAMPLES`` beyond it.

    With ``n`` samples the ``q``-th percentile has ``n * (1 - q/100)``
    samples above it, so the supported level is ``100 * (1 - 10/n)``,
    floored to a tenth of a percent; below 20 samples only the median is
    supported.
    """
    if n < 2 * MIN_TAIL_SAMPLES:
        return 50.0
    level = math.floor(1000.0 * (1.0 - MIN_TAIL_SAMPLES / n)) / 10.0
    return min(wanted, max(level, 50.0))


def tail(samples: Sequence[float], wanted: float = 99.0) -> Percentile:
    """The highest percentile up to ``wanted`` that the sample supports."""
    level = supported_level(len(samples), wanted)
    return Percentile(level, percentile(samples, level), len(samples))


def median(samples: Sequence[float]) -> Percentile:
    return Percentile(50.0, percentile(samples, 50.0), len(samples))


@dataclass(frozen=True)
class Lateness:
    """How far an open-loop generator ran behind its schedule."""

    p50_ms: float
    p99: Percentile
    max_ms: float
    n: int

    def as_dict(self) -> dict[str, float]:
        return {"p50": self.p50_ms, f"p{self.p99.level:g}": self.p99.value, "max": self.max_ms, "n": self.n}


def lateness(due: Sequence[float], sent: Sequence[float]) -> Lateness:
    """Per-request lateness ``sent - due`` (seconds in, milliseconds out).

    A request sent early (clock jitter) counts as on time: lateness is
    never negative, so a generator that keeps its schedule reads ~0.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent times must pair up")
    if len(due) == 0:
        raise ValueError("lateness of an empty schedule")
    late_ms = [max(0.0, (float(s) - float(d)) * 1e3) for d, s in zip(due, sent)]
    return Lateness(
        p50_ms=percentile(late_ms, 50.0),
        p99=tail(late_ms),
        max_ms=max(late_ms),
        n=len(late_ms),
    )

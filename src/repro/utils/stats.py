"""Small statistics helpers for Monte-Carlo aggregation.

The simulation harness aggregates per-hop infected counts over many random
replicas. :class:`RunningStats` implements Welford's online algorithm so the
harness never materialises all samples, and :func:`confidence_interval`
provides the half-width the experiment reports print.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

__all__ = [
    "mean",
    "stdev",
    "RunningStats",
    "confidence_interval",
    "bootstrap_mean_diff",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


class RunningStats:
    """Welford online mean/variance accumulator.

    Example:
        >>> rs = RunningStats()
        >>> for v in (1.0, 2.0, 3.0):
        ...     rs.add(v)
        >>> rs.mean
        2.0
    """

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 for n < 2."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return f"RunningStats(n={self.count}, mean={self.mean:.4g}, sd={self.stdev:.4g})"


def bootstrap_mean_diff(
    left: Sequence[float],
    right: Sequence[float],
    rng,
    iterations: int = 2000,
    confidence: float = 0.95,
) -> Tuple[float, Tuple[float, float], float]:
    """Bootstrap the difference of means ``mean(left) - mean(right)``.

    Used to decide whether an algorithm comparison ("Greedy infected fewer
    nodes than Proximity") is resolved by the Monte-Carlo sample or still
    noise.

    Args:
        left / right: independent samples (e.g. per-replica final infected
            counts of two algorithms).
        rng: an :class:`repro.rng.RngStream` (consumed).
        iterations: bootstrap resamples.
        confidence: two-sided interval mass.

    Returns:
        ``(observed_diff, (lo, hi), p_left_smaller)`` where
        ``p_left_smaller`` is the bootstrap probability that left's mean
        is strictly below right's.
    """
    if not left or not right:
        raise ValueError("bootstrap needs non-empty samples on both sides")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if iterations < 10:
        raise ValueError("iterations must be >= 10")
    observed = mean(list(left)) - mean(list(right))
    diffs = []
    n_left, n_right = len(left), len(right)
    for _ in range(iterations):
        resample_left = [left[rng.randrange(n_left)] for _ in range(n_left)]
        resample_right = [right[rng.randrange(n_right)] for _ in range(n_right)]
        diffs.append(mean(resample_left) - mean(resample_right))
    diffs.sort()
    tail = (1.0 - confidence) / 2.0
    lo_index = int(tail * iterations)
    hi_index = min(iterations - 1, int((1.0 - tail) * iterations))
    p_left_smaller = sum(1 for d in diffs if d < 0) / iterations
    return observed, (diffs[lo_index], diffs[hi_index]), p_left_smaller


def confidence_interval(stats: RunningStats, z: float = 1.96) -> Tuple[float, float]:
    """Normal-approximation confidence interval ``(lo, hi)`` for the mean.

    Uses z=1.96 (95%) by default; adequate for the replica counts the
    benchmarks use (>= 30).
    """
    if stats.count == 0:
        return (0.0, 0.0)
    half = z * stats.stdev / math.sqrt(stats.count)
    return (stats.mean - half, stats.mean + half)

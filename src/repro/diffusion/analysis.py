"""Analytics over infected-per-hop series.

Section VI.B.2 makes two quantitative observations about the OPOAO
figures beyond who-beats-whom:

* "As for the relative increase speed of the number of infected nodes
  (the fraction between newly infected nodes and early existing infected
  nodes) ... it does not increase, i.e., decrease or remain unchanged."
* "after 32 hops, the size of newly infected nodes is quite small for
  these three methods, and even the Noblocking line shows similar
  property."

This module computes those quantities — per-hop growth and relative
growth rate — so the benchmarks and tests can assert the observations
instead of eyeballing curves.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ValidationError

__all__ = [
    "newly_infected",
    "relative_growth",
    "is_growth_non_accelerating",
]


def _check_series(series: Sequence[float]) -> None:
    if len(series) < 1:
        raise ValidationError("series must not be empty")
    for earlier, later in zip(series, series[1:]):
        if later < earlier - 1e-9:
            raise ValidationError("cumulative series must be non-decreasing")


def newly_infected(series: Sequence[float]) -> List[float]:
    """Per-hop increments of a cumulative series (length ``len - 1``)."""
    _check_series(series)
    return [later - earlier for earlier, later in zip(series, series[1:])]


def relative_growth(series: Sequence[float]) -> List[float]:
    """The paper's "relative increase speed": new infections at hop ``t``
    divided by the cumulative count at hop ``t - 1``.

    Hops with a zero cumulative base are skipped (cannot happen after hop
    0 in practice since seeds are counted there).
    """
    _check_series(series)
    rates: List[float] = []
    for hop in range(1, len(series)):
        base = series[hop - 1]
        if base > 0:
            rates.append((series[hop] - base) / base)
    return rates


def is_growth_non_accelerating(
    series: Sequence[float], tolerance: float = 0.05, window: int = 3
) -> bool:
    """Check the paper's claim that relative growth never increases.

    Individual Monte-Carlo hops are noisy, so the check compares a moving
    average of the relative-growth sequence: every windowed mean must be
    at most the previous windowed mean plus ``tolerance``.
    """
    rates = relative_growth(series)
    if len(rates) <= window:
        return True
    means = [
        sum(rates[i : i + window]) / window for i in range(len(rates) - window + 1)
    ]
    return all(b <= a + tolerance for a, b in zip(means, means[1:]))

"""General-purpose utilities shared across the library.

Submodules:

* :mod:`repro.utils.validation` — argument checking helpers that raise
  :class:`repro.errors.ValidationError` with actionable messages.
* :mod:`repro.utils.tables` — plain-text table rendering for experiment
  output (no third-party dependency).
* :mod:`repro.utils.stats` — small statistics helpers (mean, stdev,
  confidence intervals) used by the Monte-Carlo harness.
"""

from repro.utils.stats import RunningStats, mean, stdev
from repro.utils.tables import format_series, format_table
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
)

__all__ = [
    "RunningStats",
    "mean",
    "stdev",
    "format_series",
    "format_table",
    "check_fraction",
    "check_positive",
    "check_probability",
]

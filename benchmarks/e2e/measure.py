"""Statistics and environment records shared by the e2e benchmark.

Kept free of ``repro`` imports on purpose: the benchmark's own
definitions (what a percentile is, what "peak memory" means) must not
move when the code under measurement changes.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence

#: iterations of the fixed calibration loop (about 20 ms on a 2-vCPU box).
CALIBRATION_ITERATIONS = 300_000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values``, ``q`` in percent.

    The ``ceil(q/100 * n)``-th smallest value: every reported number is
    one that was actually observed, and ``q=50`` of an even-length sample
    is the lower middle value.
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` by :func:`statistics.quantiles` (exclusive method).

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(v) for v in statistics.quantiles(values, n=4)]


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def calibrate() -> float:
    """Milliseconds one fixed pure-Python loop takes on this machine now.

    Recorded before and after every workload so a slow run can be told
    apart from a slow machine; never compared against a bound.
    """
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return (time.perf_counter() - started) * 1000.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux. Children count only once they have
    been waited for, so close every pool before calling this.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> Dict[str, object]:
    """What a result needs to be read on another machine."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
    }

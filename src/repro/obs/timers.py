"""Accumulating wall-clock timers (the observability layer's time axis).

:class:`Timer` is a re-enterable context manager that accumulates elapsed
seconds across several timed sections — how the experiment harness
attributes time to pipeline stages. :meth:`merge` / :meth:`to_dict` are
its halves of the snapshot-and-merge protocol used by
:class:`repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["Timer", "NullTimer", "NULL_TIMER"]


class Timer:
    """Accumulating wall-clock timer.

    Example:
        >>> timer = Timer("selection")
        >>> with timer:
        ...     _ = sum(range(1000))
        >>> timer.elapsed >= 0.0
        True
    """

    __slots__ = ("name", "elapsed", "calls", "_started_at")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.elapsed = 0.0
        self.calls = 0
        self._started_at: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started_at = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._started_at is not None, "Timer exited without entering"
        self.elapsed += time.perf_counter() - self._started_at
        self.calls += 1
        self._started_at = None

    @property
    def running(self) -> bool:
        """True while inside a ``with`` block."""
        return self._started_at is not None

    def reset(self) -> None:
        """Zero the accumulated time and call count."""
        self.elapsed = 0.0
        self.calls = 0
        self._started_at = None

    def merge(self, other: "Timer") -> None:
        """Fold another timer's accumulated time into this one (in place).

        Timers merge additively: total elapsed and total calls. Parallel
        workers therefore report *CPU-section* time, which can exceed the
        parent's wall-clock — by design, this is the work axis.
        """
        self.elapsed += other.elapsed
        self.calls += other.calls

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready ``{"seconds": ..., "calls": ...}`` record."""
        return {"seconds": self.elapsed, "calls": self.calls}

    def __repr__(self) -> str:
        label = self.name or "timer"
        return f"Timer({label}: {self.elapsed:.3f}s over {self.calls} call(s))"


class NullTimer:
    """No-op stand-in returned by the null registry's ``timer()``.

    Supports the same context-manager surface as :class:`Timer` at
    near-zero cost; the accumulators stay at zero forever.
    """

    __slots__ = ()

    name = ""
    elapsed = 0.0
    calls = 0
    running = False

    def __enter__(self) -> "NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def reset(self) -> None:
        return None

    def merge(self, other: object) -> None:
        return None

    def to_dict(self) -> Dict[str, float]:
        return {"seconds": 0.0, "calls": 0}

    def __repr__(self) -> str:
        return "NullTimer()"


#: Shared no-op timer instance (stateless, safe to reuse everywhere).
NULL_TIMER = NullTimer()

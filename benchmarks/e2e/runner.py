"""Run one workload in this interpreter and produce its result line.

The run has four phases, always in this order:

1. **set-up** of the state the loop measures;
2. **the closed loop**: one client, the next request only after the
   previous answer arrived, for ``seconds`` of wall time (at least one
   op). Only :meth:`op` is inside the timer. Between ops, at evenly
   spaced moments, the loop also sets up and drops ``setup_reps - 1``
   spare states; their time extends the loop's deadline. ``setup_s`` is
   the median of all ``setup_reps`` set-ups, spread across the run so
   that it sees the same machine as the ops do;
3. **checks**: each answer was validated as it arrived; now the
   workload's end-of-run check and the quality race run, untimed;
4. **tear-down**, then peak memory (pool children included, once reaped).

With ``trace`` set the loop interleaves traced and untraced ops: of each
consecutive pair, a seeded coin picks the traced one. Traced ops run
with every :data:`~benchmarks.e2e.layers.SITES` wrapper installed and a
fresh obs registry active; untraced ops run the code as shipped with
the null registry. The traced/untraced latency ratio is the tracing
overhead, measured on the same inputs mix.
"""

from __future__ import annotations

import contextlib
import gc
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import layers
from benchmarks.e2e.measure import calibrate, environment, peak_rss_mb, percentile
from benchmarks.e2e.spans import Tracer, patched
from repro.obs import MetricsRegistry, use_registry

#: end-to-end metrics every workload reports: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("protected_frac", "ratio", "higher"),
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"


class _NullTracer:
    """Stands in for :class:`Tracer` on untraced ops: spans cost nothing."""

    _span = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._span


NULL_TRACER = _NullTracer()


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def run_workload(
    workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    results_dir: Optional[Path] = RESULTS_DIR,
) -> Dict[str, object]:
    """Set up, loop, check, and summarise one workload.

    Returns ``{"result": <the JSON result line>, "detail": {...}}``;
    the detail carries the calibration loop, environment, tail
    percentiles, failed checks and workload notes. With ``results_dir``
    set, traced runs write their spans to ``trace_<workload>.json`` there.
    """
    calibration = [calibrate()]
    setup_times: List[float] = []

    def spare_setup() -> float:
        """Set up and drop one spare state; the wall time it took."""
        started = time.perf_counter()
        spare = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        workload.close(spare)
        del spare
        gc.collect()  # its garbage, collected now rather than inside an op
        return time.perf_counter() - started

    state = None
    try:
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)

        tracer = Tracer()
        registry = MetricsRegistry()
        coin = random.Random(seed)
        traced_slot = 0
        latencies: Dict[bool, List[float]] = {False: [], True: []}
        seen = set()
        repeats = failed_ops = attempted = 0
        min_ops = 2 if trace else 1  # a traced run traces at least one op
        spare_every = seconds / workload.setup_reps
        loop_started = time.perf_counter()
        deadline = loop_started + seconds
        while attempted < min_ops or time.perf_counter() < deadline:
            spare_due = loop_started + spare_every * len(setup_times)
            if len(setup_times) < workload.setup_reps and time.perf_counter() >= spare_due:
                spent = spare_setup()
                loop_started += spent
                deadline += spent
            request = workload.request(state, attempted)
            key = workload.key(state, request)
            repeats += key in seen
            seen.add(key)
            if attempted % 2 == 0:
                traced_slot = coin.randrange(2)
            traced = trace and attempted % 2 == traced_slot
            if traced:
                with patched(tracer, layers.SITES), use_registry(registry):
                    started = time.perf_counter()
                    with tracer.span(layers.OP_SPAN, op=attempted):
                        reply = workload.op(state, request, tracer)
                    elapsed = time.perf_counter() - started
            else:
                started = time.perf_counter()
                reply = workload.op(state, request, NULL_TRACER)
                elapsed = time.perf_counter() - started
            latencies[traced].append(elapsed * 1000.0)
            attempted += 1
            failed_ops += not workload.validate(state, request, reply)
        while len(setup_times) < workload.setup_reps:  # a loop too short for them
            spare_setup()

        problems = list(workload.verify(state))
        protected = workload.protected_frac(state)
        info = workload.info(state) if hasattr(workload, "info") else {}
    finally:
        if state is not None:
            workload.close(state)
    peak = peak_rss_mb()
    calibration.append(calibrate())

    all_ms = latencies[False] + latencies[True]
    info["repeat_frac"] = repeats / attempted
    info["p90_ms"] = percentile(all_ms, 90)
    info["p99_ms"] = percentile(all_ms, 99)
    if trace:
        untraced = latencies[False]
        overhead = (
            statistics.fmean(latencies[True]) / statistics.fmean(untraced) - 1.0
            if untraced and latencies[True] else 0.0
        )
        values = layers.layer_metrics(
            tracer.spans, registry.counter_values(), overhead
        )
        metrics = {
            name: _metric(values[name], unit) for name, unit, _ in layers.PER_LAYER
        }
        unattributed = metrics["trace.unattributed_frac"]["value"]
        if unattributed >= layers.UNATTRIBUTED_LIMIT:
            problems.append(
                f"trace.unattributed_frac {unattributed:.3f} >= "
                f"{layers.UNATTRIBUTED_LIMIT}"
            )
        if results_dir is not None:
            results_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(results_dir / f"trace_{workload.name}.json")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "p50_ms": percentile(all_ms, 50),
            "ops_per_s": 1000.0 * attempted / sum(all_ms),
            "peak_rss_mb": peak,
            "protected_frac": protected,
        }
        metrics = {
            name: _metric(values[name], unit) for name, unit, _ in END_TO_END
        }
    failed = failed_ops + len(problems)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "detail": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(),
            "calibration_ms": calibration,
            "setup_s": setup_times,
            "ops": {"untraced": len(latencies[False]), "traced": len(latencies[True])},
            "failed_ops": failed_ops,
            "problems": problems,
            "protected_frac": protected,
            "info": info,
        },
    }

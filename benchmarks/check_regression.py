"""Benchmark-regression gate over ``repro.obs`` work counters.

CI runs the perf benchmarks under ``REPRO_BENCH_FAST=1``; each emits a
``benchmarks/results/BENCH_<name>.json`` document (see
:class:`benchmarks.conftest.BenchMetrics`). This script compares those
documents' **work counters** — RR sets sampled, sigma evaluations, BFS
node/edge visits, and friends — against the checked-in baselines in
``benchmarks/baselines/`` and fails when any counter grew by more than
the tolerance (default 10%), when a result emits a counter its
baseline does not record, or when a result no longer emits a counter
or gauge its baseline records (gauge values are context, not work, and
are not compared).

Counters, not wall clock: every counter is a deterministic function of
the seeded RNG streams (:mod:`repro.rng` derives substreams via
sha256), so the comparison is exact and immune to runner noise. A >10%
counter jump means the algorithm is genuinely doing more work, not that
the runner was busy.

Usage::

    python benchmarks/check_regression.py              # gate (exit 1 on fail)
    python benchmarks/check_regression.py --update     # refresh baselines

Run benchmarks first so ``benchmarks/results/BENCH_*.json`` exist::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_perf_simulators.py benchmarks/bench_sketch_vs_mc.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BASELINES = BENCH_DIR / "baselines"
DEFAULT_RESULTS = BENCH_DIR / "results"

#: Maximum tolerated relative counter growth before the gate fails.
DEFAULT_TOLERANCE = 0.10

#: Keys that must agree between a baseline and a result for counter
#: comparison to be meaningful at all.
_CONFIG_KEYS = ("schema", "name", "fast", "scale")


def load_document(path: Path) -> dict:
    """Load one BENCH json document."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_documents(
    baseline: dict, result: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[str], List[str]]:
    """Compare one result against its baseline.

    Returns ``(failures, notes)``: failures are gate-breaking strings
    (config mismatch, missing counter or gauge, growth beyond
    ``tolerance``, a counter the baseline does not record); notes are
    informational (counters that shrank).
    """
    failures: List[str] = []
    notes: List[str] = []
    for key in _CONFIG_KEYS:
        if baseline.get(key) != result.get(key):
            failures.append(
                f"config mismatch on {key!r}: baseline={baseline.get(key)!r} "
                f"result={result.get(key)!r} (rerun with the baseline's "
                f"REPRO_BENCH_FAST/REPRO_BENCH_SCALE settings)"
            )
    if failures:
        return failures, notes

    base_counters: Dict[str, float] = baseline.get("counters", {})
    new_counters: Dict[str, float] = result.get("counters", {})
    for name in sorted(base_counters):
        base_value = base_counters[name]
        if name not in new_counters:
            failures.append(f"counter {name!r} missing from current results")
            continue
        current = new_counters[name]
        allowed = base_value * (1.0 + tolerance)
        if current > allowed:
            grew = (
                f"{(current / base_value - 1.0) * 100:.1f}%"
                if base_value
                else "from zero"
            )
            failures.append(
                f"counter {name!r} regressed: {base_value} -> {current} "
                f"(+{grew}, tolerance {tolerance * 100:.0f}%)"
            )
        elif current < base_value:
            notes.append(
                f"counter {name!r} improved: {base_value} -> {current}"
            )
    for name in sorted(set(new_counters) - set(base_counters)):
        failures.append(
            f"new counter {name!r}={new_counters[name]} has no baseline "
            f"(record it in the baseline, or run with --update)"
        )
    new_gauges = result.get("gauges", {})
    for name in sorted(set(baseline.get("gauges", {})) - set(new_gauges)):
        failures.append(
            f"gauge {name!r} missing from current results (drop it from "
            f"the baseline if the benchmark no longer sets it)"
        )
    return failures, notes


def summary_table(failures: List[Tuple[str, str]]) -> str:
    """Aligned cross-document table of every gate failure.

    One row per failure so a run that regresses several counters in
    several documents reports the whole damage in one place instead of
    making the operator fix-and-rerun one counter at a time.
    """
    documents = sorted({document for document, _ in failures})
    width = max(len("document"), *(len(document) for document, _ in failures))
    lines = [
        f"REGRESSION SUMMARY: {len(failures)} failure(s) across "
        f"{len(documents)} document(s)",
        f"  {'document':<{width}}  failure",
        f"  {'-' * width}  -------",
    ]
    for document, failure in failures:
        lines.append(f"  {document:<{width}}  {failure}")
    return "\n".join(lines)


def check(
    baselines_dir: Path, results_dir: Path, tolerance: float
) -> int:
    """Gate every baseline against its result; returns a process exit code.

    Every document is compared even after the first failure; all
    regressing counters land in one :func:`summary_table` at the end.
    """
    baselines = sorted(baselines_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {baselines_dir}")
        return 2
    all_failures: List[Tuple[str, str]] = []
    for baseline_path in baselines:
        result_path = results_dir / baseline_path.name
        print(f"== {baseline_path.name}")
        if not result_path.exists():
            message = f"no result emitted at {result_path}"
            print(f"  FAIL: {message}")
            all_failures.append((baseline_path.name, message))
            continue
        failures, notes = compare_documents(
            load_document(baseline_path), load_document(result_path), tolerance
        )
        for note in notes:
            print(f"  note: {note}")
        for failure in failures:
            print(f"  FAIL: {failure}")
        all_failures.extend(
            (baseline_path.name, failure) for failure in failures
        )
        if not failures:
            print("  ok")
    baseline_names = {path.name for path in baselines}
    for result_path in sorted(results_dir.glob("BENCH_*.json")):
        # A result with no checked-in baseline yet is a warning, not a
        # failure: a freshly added benchmark must be able to run in CI
        # before its first baseline lands.
        if result_path.name not in baseline_names:
            print(f"== {result_path.name}")
            print(
                f"  warn: no baseline for {result_path.name}; run "
                f"'python benchmarks/check_regression.py --update' and "
                f"commit benchmarks/baselines/{result_path.name}"
            )
    if all_failures:
        print()
        print(summary_table(all_failures))
        return 1
    return 0


def update(baselines_dir: Path, results_dir: Path) -> int:
    """Copy every emitted result over its baseline (refresh mode)."""
    results = sorted(results_dir.glob("BENCH_*.json"))
    if not results:
        print(f"error: no BENCH_*.json results under {results_dir}")
        return 2
    baselines_dir.mkdir(exist_ok=True)
    for result_path in results:
        target = baselines_dir / result_path.name
        shutil.copyfile(result_path, target)
        print(f"updated {target}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines", type=Path, default=DEFAULT_BASELINES,
        help="directory of checked-in BENCH_*.json baselines",
    )
    parser.add_argument(
        "--results", type=Path, default=DEFAULT_RESULTS,
        help="directory of freshly emitted BENCH_*.json results",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max tolerated relative counter growth (default 0.10)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="refresh baselines from the current results instead of gating",
    )
    args = parser.parse_args(argv)
    if args.update:
        return update(args.baselines, args.results)
    return check(args.baselines, args.results, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the e2e benchmark.

Three forms::

    --workload W --seed N --seconds S --trace 0|1
        run one workload in this interpreter; the last line of stdout is
        its JSON result ``{"correct", "attempted", "failed", "metrics"}``.
    run [--seed N] [--seconds S] [--trace] [--out DIR]
        run the workloads one after the other, each in a fresh interpreter,
        print one row per workload and save one run document.
    compare A B
        medians, quartiles and a verdict per workload and metric.

Exit status is non-zero when any output check failed (or, for
``compare``, when any metric got worse than its bound).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import compare, layers
from benchmarks.e2e.runner import END_TO_END, RESULTS_DIR, run_workload
from benchmarks.e2e.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ENTRY = HERE / "run.py"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _detail_path(workload: str, seed: int, trace: bool) -> Path:
    return RESULTS_DIR / f"{workload}_seed{seed}_trace{int(trace)}.json"


def _one(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="Run one workload; the last stdout line is its JSON result.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    result, detail = outcome["result"], outcome["detail"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _detail_path(args.workload, args.seed, trace).write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(
        f"{args.workload}: seed {args.seed}, {result['attempted']} ops "
        f"({detail['ops']['traced']} traced), calibration "
        f"{detail['calibration_ms'][0]:.1f} -> {detail['calibration_ms'][1]:.1f} ms, "
        f"{detail['environment']}"
    )
    print(f"info: {json.dumps(detail['info'], sort_keys=True)}")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _spawn(workload: str, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """Run one workload in a fresh interpreter; its saved result, or None."""
    command = [
        sys.executable, str(ENTRY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    saved = _detail_path(workload, seed, trace)
    saved.unlink(missing_ok=True)
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
    if not saved.exists():  # crashed before writing its result
        sys.stderr.write(completed.stderr)
        return None
    return json.loads(saved.read_text(encoding="utf-8"))


def _table(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows
    )


def _run(argv: Sequence[str]) -> int:
    benchmark = _benchmark()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "runs")
    args = parser.parse_args(argv)

    entries: Dict[str, dict] = {}
    ok = True
    for name in WORKLOADS:
        entry = _spawn(name, args.seed, args.seconds, args.trace)
        if entry is None:
            ok = False
            print(f"{name}: crashed")
            continue
        entries[name] = entry
        ok = ok and entry["result"]["correct"]

    if entries:
        if args.trace:
            columns = list(entries)
            rows = [["metric", "unit"] + columns]
            for metric, unit, _ in layers.PER_LAYER:
                rows.append([metric, unit] + [
                    f"{entries[w]['result']['metrics'][metric]['value']:.4g}"
                    for w in columns
                ])
        else:
            rows = [["workload"] + [f"{n} ({u})" for n, u, _ in END_TO_END]
                    + ["failed_frac", "repeat_frac", "p90_ms", "p99_ms"]]
            for workload, entry in entries.items():
                result, info = entry["result"], entry["detail"]["info"]
                rows.append(
                    [workload]
                    + [f"{result['metrics'][n]['value']:.4g}" for n, _, _ in END_TO_END]
                    + [f"{result['failed'] / result['attempted']:.4g}"]
                    + [f"{info[key]:.4g}" for key in ("repeat_frac", "p90_ms", "p99_ms")]
                )
        print(_table(rows))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"run_seed{args.seed}{'_trace' if args.trace else ''}.json"
    path.write_text(
        json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": entries},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"saved {path}")
    return 0 if ok else 1


def _compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("base", type=Path, help="baseline run document or directory")
    parser.add_argument("change", type=Path, help="run document or directory to judge")
    args = parser.parse_args(argv)
    return compare.main(args.base, args.change, _benchmark())


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["run"]:
        return _run(argv[1:])
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    return _one(argv)

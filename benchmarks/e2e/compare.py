"""``compare A B``: judge two sets of runs against the benchmark's bounds.

``A`` and ``B`` are run documents written by ``run`` (or directories of
them); ``A`` is the baseline. For each workload and end-to-end metric it
prints each side's median and quartiles and one verdict:

* ``unresolved`` — either side's inter-quartile spread, as a share of its
  median, is wider than the bound, unless every run of ``B`` reads
  better than every run of ``A`` (then ``better``);
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``within bound`` — otherwise.

Exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from benchmarks.e2e.measure import quartiles, relative_spread

Values = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def load_runs(path: Path) -> List[dict]:
    """Untraced run documents at ``path`` (a file, or every ``*.json`` in it)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        document = json.loads(file.read_text(encoding="utf-8"))
        if "workloads" in document and not document.get("trace"):
            runs.append(document)
    if not runs:
        raise SystemExit(f"no untraced run documents at {path}")
    return runs


def collect(runs: Iterable[dict]) -> Values:
    values: Values = {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            for name, metric in entry["result"]["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"]
                )
    return values


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    """One metric's verdict (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    if max(relative_spread(base), relative_spread(change)) > bound:
        if better == "lower":
            clearly_better = max(change) < min(base)
        else:
            clearly_better = min(change) > max(base)
        return "better" if clearly_better else "unresolved"
    base_median = quartiles(base)[1]
    change_median = quartiles(change)[1]
    if base_median == 0:
        return "within bound" if change_median == 0 else "unresolved"
    worse_by = sign * (change_median - base_median) / abs(base_median)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(
    base: Values, change: Values, spec: Iterable[dict]
) -> List[Tuple[str, str, List[float], List[float], str]]:
    """Rows ``(workload, metric, base quartiles, change quartiles, verdict)``."""
    rows = []
    for workload in sorted(set(base) & set(change)):
        for metric in spec:
            name = metric["name"]
            if name not in base[workload] or name not in change[workload]:
                continue
            a, b = base[workload][name], change[workload][name]
            rows.append((
                workload, name, quartiles(a), quartiles(b),
                verdict(a, b, metric["better"], metric["bound"]),
            ))
    return rows


def main(base_path: Path, change_path: Path, benchmark: dict) -> int:
    rows = compare(
        collect(load_runs(base_path)),
        collect(load_runs(change_path)),
        benchmark["end_to_end"],
    )
    print(f"{'workload':<14} {'metric':<16} {'A: median [q1, q3]':>30} "
          f"{'B: median [q1, q3]':>30}  verdict")
    for workload, name, a, b, outcome in rows:
        print(f"{workload:<14} {name:<16} {_quartiles(a):>30} {_quartiles(b):>30}  {outcome}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


def _quartiles(values: List[float]) -> str:
    q1, median, q3 = values
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

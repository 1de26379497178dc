"""Sketch-greedy vs Monte-Carlo greedy/CELF: wall-clock and quality.

The conclusion of the paper flags greedy's simulation cost as the open
problem; :mod:`repro.sketch` answers it with RR-set sketches. This bench
runs the LCRB-D instance (DOAM semantics, identical rumor seeds and
budget) on the Enron-small and Hep replicas and compares

* **quality** — the referee σ (expected blocked bridge ends) of each
  selector's protector set, judged by one independent Monte-Carlo
  estimator, and
* **cost** — selection wall-clock.

Acceptance gate (Enron-small): RIS-greedy reaches at least 95% of CELF's
referee σ while selecting at least 5x faster.
"""

from benchmarks.conftest import FAST, SCALE
from repro.algorithms.base import SelectionContext
from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.greedy import GreedySelector, SigmaEstimator
from repro.algorithms.ris_greedy import RISGreedySelector
from repro.datasets.registry import load_dataset
from repro.diffusion.doam import DOAMModel
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.obs.timers import Timer
from repro.rng import RngStream
from repro.utils.tables import format_table

BUDGET = 3 if FAST else 5
POOL_CAP = 60 if FAST else 150
#: RIS sketch sizing, FAST-aware like the Monte-Carlo knobs above (DOAM
#: clamps to one deterministic world, but OPOAO-semantics reruns and the
#: adaptive doubling cap both honour these).
RIS_WORLDS = 16 if FAST else 64
RIS_MAX_WORLDS = 512 if FAST else 4096


def _ris_selector() -> RISGreedySelector:
    return RISGreedySelector(
        semantics="doam",
        initial_worlds=RIS_WORLDS,
        max_worlds=RIS_MAX_WORLDS,
    )


def _instance(name: str) -> SelectionContext:
    dataset = load_dataset(name, scale=SCALE, seed=13)
    size = dataset.communities.size(dataset.rumor_community)
    seeds = draw_rumor_seeds(
        dataset.communities,
        dataset.rumor_community,
        max(2, size // 10),
        RngStream(44, name="sketch-vs-mc"),
    )
    return SelectionContext(dataset.graph, dataset.rumor_community_nodes, seeds)


def _run_selectors(context: SelectionContext) -> dict:
    """Select with each algorithm on the same instance; referee-score all."""
    selectors = {
        "greedy": GreedySelector(
            model=DOAMModel(), runs=1, max_candidates=POOL_CAP, rng=RngStream(7)
        ),
        "celf": CELFGreedySelector(
            model=DOAMModel(), runs=1, max_candidates=POOL_CAP, rng=RngStream(7)
        ),
        "ris_greedy": _ris_selector(),
    }
    referee = SigmaEstimator(context, model=DOAMModel(), runs=1, rng=RngStream(91))
    out = {}
    for key, selector in selectors.items():
        timer = Timer(key)
        with timer:
            picks = selector.select(context, budget=BUDGET)
        out[key] = {
            "protectors": [str(p) for p in picks],
            "sigma": referee.sigma(picks),
            "seconds": timer.elapsed,
        }
    return out


def _render(name: str, results: dict) -> str:
    celf_time = results["celf"]["seconds"]
    rows = [
        [
            key,
            len(entry["protectors"]),
            round(entry["sigma"], 2),
            round(entry["seconds"], 4),
            f"{celf_time / max(entry['seconds'], 1e-9):.1f}x",
        ]
        for key, entry in results.items()
    ]
    return format_table(
        ["selector", "|P|", "referee sigma", "wall-clock (s)", "speedup vs celf"],
        rows,
        title=f"{name} (LCRB-D, budget={BUDGET}, scale={SCALE})",
    )


def test_sketch_vs_mc_enron_small(benchmark, report_result, bench_metrics):
    context = _instance("enron-small")
    # Untimed warm-up: the first selection in a process pays one-off
    # library imports (NumPy loads ``numpy.ma`` lazily inside
    # ``np.unique``), which would otherwise land on RIS's timed call.
    _run_selectors(context)
    with bench_metrics.collect():
        results = _run_selectors(context)
    bench_metrics.emit(
        "sketch_vs_mc_enron_small",
        context={"dataset": "enron-small", "budget": BUDGET},
    )

    # Re-time the sketch selection under pytest-benchmark statistics (a
    # fresh selector: the store cache would otherwise hide sampling cost).
    benchmark.pedantic(
        lambda: _ris_selector().select(context, budget=BUDGET),
        rounds=1,
        iterations=1,
    )

    ris, celf = results["ris_greedy"], results["celf"]
    assert ris["sigma"] >= 0.95 * celf["sigma"], (
        f"RIS quality {ris['sigma']} below 95% of CELF {celf['sigma']}"
    )
    speedup = celf["seconds"] / max(ris["seconds"], 1e-9)
    assert speedup >= 5.0, f"RIS speedup {speedup:.1f}x < 5x over CELF"

    text = _render("enron-small", results)
    report_result(
        text,
        "sketch_vs_mc_enron_small",
        payload={
            "dataset": "enron-small",
            "budget": BUDGET,
            "scale": SCALE,
            "results": results,
            "speedup_vs_celf": speedup,
        },
    )


def test_sketch_vs_mc_hep(report_result, bench_metrics):
    context = _instance("hep")
    with bench_metrics.collect():
        results = _run_selectors(context)
    bench_metrics.emit(
        "sketch_vs_mc_hep", context={"dataset": "hep", "budget": BUDGET}
    )

    ris, celf = results["ris_greedy"], results["celf"]
    assert ris["sigma"] >= 0.90 * celf["sigma"] - 0.5

    text = _render("hep", results)
    report_result(
        text,
        "sketch_vs_mc_hep",
        payload={
            "dataset": "hep",
            "budget": BUDGET,
            "scale": SCALE,
            "results": results,
        },
    )

"""Ablation — CELF lazy greedy vs exhaustive greedy (Algorithm 1).

The paper's conclusion names greedy's cost as the open problem; CELF is
the standard submodularity-based answer. σ is submodular in expectation
(Theorem 1) but the finite-sample estimate σ̂ can violate submodularity by
sampling noise, so CELF's stale bounds may occasionally reorder
equal-quality picks; the correctness contract is therefore *solution
quality*, not sequence identity. This bench verifies CELF's protector set
achieves at least 95% of exhaustive greedy's σ̂ while reporting the
σ-evaluation counts and wall-clock of each.
"""

from benchmarks.conftest import FAST, SCALE
from repro.algorithms.base import SelectionContext
from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.greedy import GreedySelector
from repro.datasets.registry import load_dataset
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.obs.timers import Timer
from repro.rng import RngStream
from repro.utils.tables import format_table


def _instance():
    dataset = load_dataset("enron-small", scale=SCALE, seed=13)
    size = dataset.communities.size(dataset.rumor_community)
    seeds = draw_rumor_seeds(
        dataset.communities,
        dataset.rumor_community,
        max(2, size // 10),
        RngStream(32, name="ablation-celf"),
    )
    return SelectionContext(dataset.graph, dataset.rumor_community_nodes, seeds)


def test_ablation_celf_vs_exhaustive(benchmark, report_result):
    context = _instance()
    budget = 3 if FAST else 5
    runs = 4 if FAST else 6
    cap = 40 if FAST else 80

    greedy = GreedySelector(runs=runs, max_candidates=cap, rng=RngStream(33))
    celf = CELFGreedySelector(runs=runs, max_candidates=cap, rng=RngStream(33))

    greedy_timer = Timer("greedy")
    with greedy_timer:
        greedy_picks = greedy.select(context, budget=budget)
    celf_picks = benchmark.pedantic(
        celf.select, args=(context,), kwargs={"budget": budget}, rounds=1, iterations=1
    )

    assert celf.last_evaluations <= greedy.last_evaluations

    # Judge both solutions on one independent referee estimator.
    referee = GreedySelector(runs=2 * runs, rng=RngStream(99)).make_estimator(context)
    greedy_sigma = referee.sigma(greedy_picks)
    celf_sigma = referee.sigma(celf_picks)
    assert celf_sigma >= 0.95 * greedy_sigma - 0.5, (
        f"CELF quality {celf_sigma} fell below greedy {greedy_sigma}"
    )

    rows = [
        ["protectors selected", len(greedy_picks), len(celf_picks)],
        ["referee sigma", round(greedy_sigma, 2), round(celf_sigma, 2)],
        ["sigma evaluations", greedy.last_evaluations, celf.last_evaluations],
        [
            "evaluations saved",
            "-",
            f"{100 * (1 - celf.last_evaluations / greedy.last_evaluations):.0f}%",
        ],
        ["exhaustive wall-clock (s)", round(greedy_timer.elapsed, 2), "-"],
    ]
    text = format_table(
        ["metric", "exhaustive greedy", "CELF"],
        rows,
        title=f"CELF ablation (budget={budget}, pool<=${cap}, runs={runs})".replace(
            "$", ""
        ),
    )
    report_result(text, "ablation_celf")

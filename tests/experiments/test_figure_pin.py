"""Exact pin of a small per-run OPOAO figure (the paper's Fig. 5 path).

The figure's series and Greedy's picks are pure functions of the seeded
per-run streams, so any change to a per-run draw (how a pick consumes
the stream, the order live nodes pick in, the weighted table search)
moves these numbers. A deliberate per-run draw-source rebaseline must
re-record them on purpose; a speed-up of the race must leave them as
they are.
"""

import pytest

from repro.algorithms.celf import CELFGreedySelector
from repro.experiments.harness import run_figure
from repro.experiments.paper import paper_experiment

GREEDY_PICKS = [[429, 423, 464, 462, 440], [423, 464, 462, 429, 440]]

SERIES = {
    "Greedy": [
        9.0, 14.375, 20.625, 29.125, 39.25, 53.375, 72.125, 94.75, 124.625,
        156.5, 190.875, 221.125, 247.0, 267.125, 282.75, 293.625, 298.875,
        304.25, 307.5, 309.5, 310.875, 312.25, 312.625, 313.375, 314.25,
        314.625, 314.625, 315.0, 315.25, 315.375, 315.625, 316.0,
    ],
    "Proximity": [
        9.0, 14.5, 19.75, 26.125, 33.375, 42.5, 53.75, 67.625, 81.875, 96.5,
        109.375, 119.75, 126.625, 132.0, 135.25, 137.0, 138.0, 139.0, 139.75,
        140.25, 140.5, 140.625, 140.875, 141.0, 141.25, 141.5, 142.0, 142.125,
        142.25, 142.25, 142.5, 142.5,
    ],
    "MaxDegree": [
        9.0, 15.625, 25.625, 36.25, 50.75, 66.5, 85.0, 103.25, 120.0,
        134.875, 146.25, 155.25, 161.5, 164.875, 167.25, 170.625, 172.0,
        172.75, 173.625, 174.0, 174.5, 174.75, 175.0, 175.25, 175.25,
        175.375, 175.5, 175.625, 175.75, 176.0, 176.0, 176.125,
    ],
    "NoBlocking": [
        9.0, 16.5, 26.75, 40.875, 59.625, 86.75, 122.875, 174.125, 241.75,
        325.375, 408.125, 485.125, 554.5, 602.25, 637.875, 661.875, 680.375,
        692.0, 702.0, 707.75, 712.375, 715.625, 717.375, 719.25, 721.125,
        723.125, 724.125, 724.875, 725.625, 726.25, 727.25, 727.625,
    ],
}


@pytest.fixture(scope="module")
def pinned_run():
    """fig5 at scale 0.02 (2 draws, 31 hops) with Greedy's picks recorded."""
    picks = []
    original = CELFGreedySelector.select

    def select(self, context, budget=None):
        chosen = original(self, context, budget)
        picks.append(list(chosen))
        return chosen

    config = paper_experiment("fig5").scaled(
        scale=0.02, runs=4, greedy_runs=2, greedy_max_candidates=5
    )
    CELFGreedySelector.select = select
    try:
        result = run_figure(config)
    finally:
        CELFGreedySelector.select = original
    return result, picks


class TestPerRunFigurePin:
    def test_runs_on_the_per_run_path(self, pinned_run):
        result, _ = pinned_run
        assert result.config.backend is None

    def test_greedy_picks(self, pinned_run):
        _, picks = pinned_run
        assert picks == GREEDY_PICKS

    def test_series(self, pinned_run):
        result, _ = pinned_run
        assert result.series == SERIES

"""Cross-module failure-injection tests.

Each test feeds a deliberately broken input through a *composed* path
(not just the validating function) and checks the failure is loud,
typed, and actionable — never a silent wrong answer.
"""

import pytest

from repro.algorithms.base import SelectionContext
from repro.algorithms.scbg import SCBGSelector
from repro.community.structure import CommunityStructure
from repro.diffusion.base import SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.errors import (
    CommunityError,
    CoverageError,
    ReproError,
    SeedError,
    ValidationError,
)
from repro.graph.digraph import DiGraph
from repro.lcrb.pipeline import build_context
from repro.rng import RngStream


class TestSeedFailures:
    def test_rumor_seed_equal_to_protector_everywhere(self, toy):
        graph, communities, info = toy
        indexed = graph.to_indexed()
        node = indexed.index("c1")
        with pytest.raises(SeedError):
            DOAMModel().run(indexed, SeedSets(rumors=[node], protectors=[node]))

    def test_float_seed_id_rejected(self, toy):
        graph, _, _ = toy
        indexed = graph.to_indexed()
        seeds = SeedSets(rumors=[1.0])
        with pytest.raises(SeedError):
            DOAMModel().run(indexed, seeds)

    def test_bool_seed_id_rejected(self, toy):
        graph, _, _ = toy
        indexed = graph.to_indexed()
        seeds = SeedSets(rumors=[True])
        with pytest.raises(SeedError):
            OPOAOModel().run(indexed, seeds, rng=RngStream(1))

    def test_all_failures_are_repro_errors(self, toy):
        graph, communities, _ = toy
        failures = [
            lambda: SelectionContext(graph, communities.members(0), []),
            lambda: SelectionContext(graph, communities.members(0), ["b"]),
            lambda: SeedSets(rumors=[]),
        ]
        for failure in failures:
            with pytest.raises(ReproError):
                failure()


class TestCommunityFailures:
    def test_cover_from_wrong_graph_rejected_by_problem(self, toy, fig2):
        graph, communities, info = toy
        other_graph, _, _ = fig2
        with pytest.raises(ValidationError):
            build_context(other_graph, communities, 0, info["rumor_seeds"])

    def test_partial_cover_rejected(self, toy):
        graph, _, _ = toy
        with pytest.raises(CommunityError):
            CommunityStructure(graph, {"r": 0})

    def test_overlapping_blocks_rejected(self, toy):
        graph, _, _ = toy
        with pytest.raises(CommunityError):
            CommunityStructure.from_blocks(
                graph, [["r", "c1"], ["c1", "c2", "b", "d", "e"]]
            )


class TestCoverageFailures:
    def test_uncoverable_bridge_end_is_loud(self):
        # A bridge end at rumor distance 1 whose only in-neighbor is the
        # rumor seed itself: only the bridge end can protect itself; if we
        # exclude it from candidacy the cover must fail loudly.
        g = DiGraph.from_edges([("r", "b"), ("b", "x")])
        context = SelectionContext(g, ["r"], ["r"])
        selector = SCBGSelector()
        coverage = selector.coverage_map(context)
        coverage.pop("b")  # sabotage: remove the only covering set
        from repro.algorithms.setcover import greedy_set_cover

        with pytest.raises(CoverageError) as excinfo:
            greedy_set_cover(context.bridge_ends, coverage)
        assert "b" in excinfo.value.uncovered

    def test_impossible_heuristic_pool_is_loud(self, fig2_context):
        from repro.algorithms.heuristics import minimal_covering_prefix

        with pytest.raises(CoverageError):
            minimal_covering_prefix(fig2_context, ["q1", "q2"])


class TestNumericFailures:
    def test_negative_scale_rejected_in_registry(self):
        from repro.datasets.registry import load_dataset
        from repro.errors import ValidationError as VE

        with pytest.raises((VE, ReproError)):
            load_dataset("hep", scale=-0.5)

    def test_alpha_out_of_range_in_greedy(self):
        from repro.algorithms.greedy import GreedySelector

        with pytest.raises(ValidationError):
            GreedySelector(alpha=1.0)

    def test_zero_runs_rejected_everywhere(self):
        from repro.algorithms.greedy import GreedySelector
        from repro.diffusion.simulation import MonteCarloSimulator

        with pytest.raises(ValidationError):
            GreedySelector(runs=0)
        with pytest.raises(ValidationError):
            MonteCarloSimulator(DOAMModel(), runs=0)

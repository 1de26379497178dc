"""Statistical agreement of the RR-sketch σ̂ with Monte-Carlo σ.

σ̂ is ``SketchStore.sigma`` over the worlds ``ensure_worlds`` sampled.
Under DOAM both estimators compute the same deterministic quantity, so
they must agree **exactly** on every protector set. Under OPOAO the
sketch samples the submodularity proof's coupled ``(G_R, G_P)``
construction; on protector-community candidates (the pool LCRB-P
actually selects from) it matches the interacting Monte-Carlo estimate
within sampling error — verified here with a tolerance a few times wider
than the combined standard errors at the chosen sample sizes.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SelectionContext
from repro.algorithms.greedy import SigmaEstimator
from repro.datasets.toy import figure2_graph, two_community_toy
from repro.diffusion.doam import DOAMModel
from repro.rng import RngStream
from repro.sketch.coverage import protected_fraction
from repro.sketch.rrset import sampler_for
from repro.sketch.store import SketchStore

# Sample sizes keep per-test wall clock small; per-world counts lie in
# [0, |B|] with |B| <= 3, so the two standard errors total well under
# 0.1 and the tolerance below leaves several sigmas of slack.
WORLDS = 400
RUNS = 400
TOLERANCE = 0.25

# Eligible protectors outside the rumor community (the paper's protector
# originators live in the R-neighbor communities).
TOY_CANDIDATES = ("b", "d", "e")
FIG2_CANDIDATES = ("p1", "p2", "p3", "v1", "q1", "q2", "R1", "s1", "s2")


@lru_cache(maxsize=None)
def _context(name) -> SelectionContext:
    graph, communities, info = (
        two_community_toy() if name == "toy" else figure2_graph()
    )
    return SelectionContext(
        graph, communities.members(info["rumor_community"]), info["rumor_seeds"]
    )


def _store(context, semantics, worlds=1, seed=0):
    sampler = sampler_for(semantics, context, rng=RngStream(seed))
    return SketchStore(sampler).ensure_worlds(worlds)


def _sigma(store, context, protectors):
    return store.sigma(context.indexed.indices(protectors))


@st.composite
def candidate_subsets(draw, pool):
    size = draw(st.integers(min_value=0, max_value=min(3, len(pool))))
    indices = draw(
        st.sets(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
    )
    return [pool[i] for i in sorted(indices)]


class TestDOAMExact:
    @given(protectors=candidate_subsets(TOY_CANDIDATES))
    @settings(max_examples=30, deadline=None)
    def test_toy_equality(self, protectors):
        context = _context("toy")
        store = _store(context, "doam")
        reference = SigmaEstimator(context, model=DOAMModel(), runs=1)
        assert _sigma(store, context, protectors) == reference.sigma(protectors)

    @given(protectors=candidate_subsets(FIG2_CANDIDATES))
    @settings(max_examples=30, deadline=None)
    def test_figure2_equality(self, protectors):
        context = _context("fig2")
        store = _store(context, "doam")
        reference = SigmaEstimator(context, model=DOAMModel(), runs=1)
        assert _sigma(store, context, protectors) == reference.sigma(protectors)


class TestOPOAOUnbiased:
    @pytest.fixture()
    def toy_estimators(self, toy_context):
        return (
            _store(toy_context, "opoao", WORLDS, seed=3),
            SigmaEstimator(toy_context, runs=RUNS, rng=RngStream(17)),
        )

    @pytest.fixture()
    def fig2_estimators(self, fig2_context):
        return (
            _store(fig2_context, "opoao", WORLDS, seed=3),
            SigmaEstimator(fig2_context, runs=RUNS, rng=RngStream(17)),
        )

    @pytest.mark.parametrize(
        "protectors", [["d"], ["e"], ["b"], ["d", "e"], []]
    )
    def test_toy_agreement(self, toy_estimators, toy_context, protectors):
        store, mc = toy_estimators
        assert _sigma(store, toy_context, protectors) == pytest.approx(
            mc.sigma(protectors), abs=TOLERANCE
        )

    @pytest.mark.parametrize(
        "protectors",
        [["v1"], ["R1"], ["s1"], ["s2"], ["v1", "R1"], ["v1", "s1"], ["q1"]],
    )
    def test_figure2_agreement(self, fig2_estimators, fig2_context, protectors):
        store, mc = fig2_estimators
        assert _sigma(store, fig2_context, protectors) == pytest.approx(
            mc.sigma(protectors), abs=TOLERANCE
        )

    def test_protected_fraction_agreement(self, fig2_estimators, fig2_context):
        store, _ = fig2_estimators
        from repro.lcrb import evaluate_protectors
        from repro.diffusion.opoao import OPOAOModel

        simulated = evaluate_protectors(
            fig2_context,
            ["v1", "R1"],
            OPOAOModel(),
            runs=RUNS,
            rng=RngStream(23),
        )
        covered = store.coverage_count(fig2_context.indexed.indices(["v1", "R1"]))
        ends = len(fig2_context.bridge_end_ids())
        assert protected_fraction(store, covered, ends) == pytest.approx(
            simulated.protected_bridge_fraction, abs=0.1
        )

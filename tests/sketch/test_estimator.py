"""Unit tests for SketchSigmaEstimator (the estimator-seam drop-in)."""

import pytest

from repro.algorithms.greedy import SigmaEstimator
from repro.diffusion.doam import DOAMModel
from repro.errors import SelectionError, ValidationError
from repro.rng import RngStream
from repro.sketch.estimator import SketchSigmaEstimator
from repro.sketch.rrset import sampler_for
from repro.sketch.store import SketchStore


class TestSeamCompatibility:
    """Same surface as the Monte-Carlo estimators: sigma / protected_fraction /
    evaluations."""

    def test_counter_and_signatures(self, toy_context):
        estimator = SketchSigmaEstimator(
            toy_context, semantics="doam", worlds=4, rng=RngStream(1)
        )
        assert estimator.evaluations == 0
        estimator.sigma(["d"])
        estimator.protected_fraction(["d"])
        assert estimator.evaluations == 2

    def test_rejects_rumor_overlap(self, toy_context):
        estimator = SketchSigmaEstimator(toy_context, semantics="doam")
        with pytest.raises(SelectionError):
            estimator.sigma(["r", "d"])

    def test_rejects_bad_parameters(self, toy_context):
        with pytest.raises(ValidationError):
            SketchSigmaEstimator(toy_context, worlds=0)
        with pytest.raises(ValidationError):
            SketchSigmaEstimator(toy_context, epsilon=1.5)


class TestDOAMExactness:
    def test_matches_monte_carlo_on_toy(self, toy_context):
        sketch = SketchSigmaEstimator(toy_context, semantics="doam")
        reference = SigmaEstimator(toy_context, model=DOAMModel(), runs=1)
        for protectors in ([], ["d"], ["e"], ["c2"]):
            assert sketch.sigma(protectors) == reference.sigma(protectors)

    def test_matches_monte_carlo_on_figure2(self, fig2_context):
        sketch = SketchSigmaEstimator(fig2_context, semantics="doam")
        reference = SigmaEstimator(fig2_context, model=DOAMModel(), runs=1)
        for protectors in ([], ["v1"], ["R1"], ["v1", "R1"], ["a1", "a3"]):
            assert sketch.sigma(protectors) == reference.sigma(protectors)

    def test_protected_fraction_bounds(self, fig2_context):
        sketch = SketchSigmaEstimator(fig2_context, semantics="doam")
        assert sketch.protected_fraction([]) == 0.0  # all three ends at risk
        assert sketch.protected_fraction(["v1", "R1"]) == 1.0
        assert 0.0 < sketch.protected_fraction(["v1"]) < 1.0


class TestSampling:
    def test_fixed_worlds_without_epsilon(self, fig2_context):
        estimator = SketchSigmaEstimator(
            fig2_context, semantics="opoao", worlds=16, rng=RngStream(5)
        )
        estimator.sigma(["v1"])
        assert estimator.store.worlds == 16

    def test_epsilon_triggers_adaptive_growth(self, fig2_context):
        """The stopping rule, over seeds: grow exactly when 4 worlds miss it.

        Whether one seed's first four worlds meet the (ε, δ) target is
        luck, so every seed is checked against its own 4-world interval.
        """
        protectors = fig2_context.indexed.indices(["v1"])
        grew = 0
        for seed in range(10):
            first_four = SketchStore(
                sampler_for("opoao", fig2_context, rng=RngStream(seed))
            ).ensure_worlds(4)
            estimator = SketchSigmaEstimator(
                fig2_context,
                semantics="opoao",
                worlds=4,
                epsilon=0.05,
                delta=0.05,
                max_worlds=512,
                rng=RngStream(seed),
            )
            estimator.sigma(["v1"])
            if first_four.precision_ok(protectors, 0.05, 0.05):
                assert estimator.store.worlds == 4, seed
            else:
                assert 4 < estimator.store.worlds <= 512, seed
                grew += 1
        assert grew >= 1

    def test_shared_store_reuses_samples(self, fig2_context):
        store = SketchStore(
            sampler_for("opoao", fig2_context, rng=RngStream(9))
        ).ensure_worlds(32)
        estimator = SketchSigmaEstimator(fig2_context, worlds=32, store=store)
        estimator.sigma(["v1"])
        assert estimator.store is store
        assert store.worlds == 32  # no resampling happened

    def test_deterministic_across_instances(self, fig2_context):
        values = [
            SketchSigmaEstimator(
                fig2_context, semantics="opoao", worlds=64, rng=RngStream(11)
            ).sigma(["v1"])
            for _ in range(2)
        ]
        assert values[0] == values[1]

    def test_empty_protector_set(self, fig2_context):
        estimator = SketchSigmaEstimator(
            fig2_context, semantics="opoao", worlds=8, rng=RngStream(2)
        )
        assert estimator.sigma([]) == 0.0

"""σ̂ from a SketchStore, and the selector's (ε, δ) doubling loop."""

from repro.algorithms.greedy import SigmaEstimator
from repro.algorithms.ris_greedy import RISGreedySelector
from repro.diffusion.doam import DOAMModel
from repro.rng import RngStream
from repro.sketch.coverage import max_coverage, protected_fraction
from repro.sketch.rrset import sampler_for
from repro.sketch.store import SketchStore


def _store(context, semantics, worlds, seed=0):
    sampler = sampler_for(semantics, context, rng=RngStream(seed))
    return SketchStore(sampler).ensure_worlds(worlds)


class TestDOAMExactness:
    def test_matches_monte_carlo_on_toy(self, toy_context):
        store = _store(toy_context, "doam", 1)
        reference = SigmaEstimator(toy_context, model=DOAMModel(), runs=1)
        for protectors in ([], ["d"], ["e"], ["c2"]):
            ids = toy_context.indexed.indices(protectors)
            assert store.sigma(ids) == reference.sigma(protectors)

    def test_matches_monte_carlo_on_figure2(self, fig2_context):
        store = _store(fig2_context, "doam", 1)
        reference = SigmaEstimator(fig2_context, model=DOAMModel(), runs=1)
        for protectors in ([], ["v1"], ["R1"], ["v1", "R1"], ["a1", "a3"]):
            ids = fig2_context.indexed.indices(protectors)
            assert store.sigma(ids) == reference.sigma(protectors)

    def test_protected_fraction_bounds(self, fig2_context):
        store = _store(fig2_context, "doam", 1)
        ends = len(fig2_context.bridge_end_ids())

        def fraction(protectors):
            ids = fig2_context.indexed.indices(protectors)
            return protected_fraction(store, store.coverage_count(ids), ends)

        assert fraction([]) == 0.0  # all three ends at risk
        assert fraction(["v1", "R1"]) == 1.0
        assert 0.0 < fraction(["v1"]) < 1.0


class TestSampling:
    def test_fixed_worlds_without_epsilon(self, fig2_context):
        store = _store(fig2_context, "opoao", 16, seed=5)
        store.sigma(fig2_context.indexed.indices(["v1"]))
        assert store.worlds == 16

    def test_epsilon_triggers_adaptive_growth(self, fig2_context):
        """The stopping rule, over seeds: grow exactly when 4 worlds miss it.

        Whether one seed's first four worlds meet the (ε, δ) target for
        the pick made on them is luck, so every seed is checked against
        its own 4-world interval.
        """
        excluded = fig2_context.rumor_seed_ids()
        grew = 0
        for seed in range(10):
            selector = RISGreedySelector(
                semantics="opoao",
                epsilon=0.05,
                delta=0.05,
                initial_worlds=4,
                max_worlds=512,
                rng=RngStream(seed),
            )
            first_four = selector.make_store(fig2_context).ensure_worlds(4)
            pick = max_coverage(first_four, budget=1, excluded=excluded)
            met = first_four.precision_ok(pick, 0.05, 0.05)
            selector.select(fig2_context, budget=1)
            if met:
                assert selector.last_worlds == 4, seed
            else:
                assert 4 < selector.last_worlds <= 512, seed
                grew += 1
        assert grew >= 1

    def test_shared_store_reuses_samples(self, fig2_context):
        selector = RISGreedySelector(
            semantics="opoao", initial_worlds=32, max_worlds=32, rng=RngStream(9)
        )
        store = selector.make_store(fig2_context).ensure_worlds(32)
        selector.select(fig2_context, budget=1)
        assert selector.make_store(fig2_context) is store
        assert store.worlds == 32  # no resampling happened

    def test_deterministic_across_instances(self, fig2_context):
        ids = fig2_context.indexed.indices(["v1"])
        values = [
            _store(fig2_context, "opoao", 64, seed=11).sigma(ids) for _ in range(2)
        ]
        assert values[0] == values[1]

    def test_empty_protector_set(self, fig2_context):
        assert _store(fig2_context, "opoao", 8, seed=2).sigma([]) == 0.0

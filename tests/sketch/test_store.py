"""Unit tests for SketchStore: storage, index, and the stopping rule."""

import math

import pytest

from repro.errors import ValidationError
from repro.rng import RngStream
from repro.sketch.rrset import WorldSample, sampler_for
from repro.sketch.store import SketchStore


class FakeSampler:
    """Scripted sampler: world i yields the i-th entry of a fixed script."""

    name = "fake"
    stochastic = True

    def __init__(self, script):
        self.script = script
        self.calls = []

    def sample_world(self, index):
        self.calls.append(index)
        rr_sets = self.script[index % len(self.script)]
        footprint = {node for root, members in rr_sets for node in (root, *members)}
        return WorldSample(index, rr_sets, footprint=footprint)


@pytest.fixture
def scripted():
    # World pattern: end 10 saved by {1, 2, 10}; end 11 saved by {2, 11}.
    return FakeSampler(
        [
            [(10, (1, 2, 10)), (11, (2, 11))],
            [(10, (2, 10))],  # end 11 not at risk in odd worlds
        ]
    )


class TestGrowth:
    def test_ensure_is_idempotent(self, scripted):
        store = SketchStore(scripted)
        store.ensure_worlds(4)
        store.ensure_worlds(4)
        store.ensure_worlds(2)
        assert store.worlds == 4
        assert scripted.calls == [0, 1, 2, 3]

    def test_double(self, scripted):
        """Doubling rounds extend the sample; earlier worlds stay put."""
        store = SketchStore(scripted).ensure_worlds(4)
        first = [store.members(set_id) for set_id in range(store.set_count)]
        for target in (8, 16):
            store.ensure_worlds(2 * store.worlds)
            assert store.worlds == target
        assert scripted.calls == list(range(16))
        assert [store.members(set_id) for set_id in range(len(first))] == first

    def test_deterministic_sampler_clamps_to_one(self, toy_context):
        store = SketchStore(sampler_for("doam", toy_context))
        store.ensure_worlds(50)
        assert store.worlds == 1

    def test_rejects_nonpositive(self, scripted):
        with pytest.raises(ValidationError):
            SketchStore(scripted).ensure_worlds(0)


class TestQueries:
    def test_layout_and_index(self, scripted):
        store = SketchStore(scripted).ensure_worlds(2)
        assert store.set_count == 3
        assert store.at_risk_total == 3
        assert store.members(0) == (1, 2, 10)
        assert store.members(1) == (2, 11)
        assert store.members(2) == (2, 10)
        assert store.root(2) == 10
        assert store.world_of(0) == 0 and store.world_of(2) == 1
        assert list(store.sets_containing(2)) == [0, 1, 2]
        assert list(store.sets_containing(1)) == [0]
        assert list(store.sets_containing(99)) == []
        assert store.nodes() == [1, 2, 10, 11]

    def test_coverage_and_sigma(self, scripted):
        store = SketchStore(scripted).ensure_worlds(2)
        assert store.coverage_count([1]) == 1
        assert store.coverage_count([2]) == 3
        assert store.coverage_count([1, 11]) == 2
        assert store.per_world_covered([2]) == [2, 1]
        # sigma = covered sets / worlds: node 2 saves both ends in world 0
        # and the single at-risk end in world 1.
        assert store.sigma([2]) == pytest.approx(1.5)
        assert store.sigma([]) == 0.0

    def test_sigma_requires_worlds(self, scripted):
        store = SketchStore(scripted)
        with pytest.raises(ValidationError):
            store.sigma([1])
        with pytest.raises(ValidationError):
            store.sigma_interval([1])


class TestStoppingRule:
    def test_interval_matches_hand_computation(self, scripted):
        store = SketchStore(scripted).ensure_worlds(4)
        mean, half = store.sigma_interval([2], delta=0.05)
        samples = [2, 1, 2, 1]
        expected_mean = sum(samples) / 4
        variance = sum((s - expected_mean) ** 2 for s in samples) / 3
        expected_half = math.sqrt(2 * math.log(1 / 0.05)) * math.sqrt(variance / 4)
        assert mean == pytest.approx(expected_mean)
        assert half == pytest.approx(expected_half)

    def test_single_stochastic_world_is_never_precise(self, scripted):
        store = SketchStore(scripted).ensure_worlds(1)
        _, half = store.sigma_interval([2])
        assert half == math.inf
        assert not store.precision_ok([2], epsilon=0.5)

    def test_zero_variance_is_precise(self):
        constant = FakeSampler([[(10, (1, 10))]])
        store = SketchStore(constant).ensure_worlds(8)
        assert store.precision_ok([1], epsilon=0.01)

    def test_deterministic_sampler_always_precise(self, toy_context):
        store = SketchStore(sampler_for("doam", toy_context)).ensure_worlds(1)
        assert store.precision_ok([0], epsilon=0.001)
        mean, half = store.sigma_interval([0])
        assert half == 0.0

    def test_more_worlds_tighten_the_interval(self, fig2_context):
        sampler = sampler_for("opoao", fig2_context, rng=RngStream(7))
        store = SketchStore(sampler)
        target = [fig2_context.indexed.index("v1")]
        store.ensure_worlds(8)
        _, wide = store.sigma_interval(target)
        store.ensure_worlds(256)
        _, tight = store.sigma_interval(target)
        assert tight < wide

    def test_invalid_parameters(self, scripted):
        store = SketchStore(scripted).ensure_worlds(2)
        with pytest.raises(ValidationError):
            store.precision_ok([2], epsilon=0.0)
        with pytest.raises(ValidationError):
            store.sigma_interval([2], delta=1.0)

"""max_coverage: the tie-break rule and a differential against a frozen copy.

The pass keeps each node's exact gain incrementally instead of
recounting ``covered[postings]`` on every heap pop. That is a pure
speed change: ``coverage_reference`` holds the recounting pass
verbatim, and every case here must match it in picks, error message
and ``selector.*`` counters, on the NumPy path and on the pure-Python
path with NumPy hidden.
"""

from __future__ import annotations

import contextlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError
from repro.obs import MetricsRegistry, use_registry
from repro.sketch.coverage import max_coverage
from repro.sketch.store import SketchStore
from tests.sketch import coverage_reference
from tests.sketch.test_store import FakeSampler


def build_store(worlds) -> SketchStore:
    """World ``i`` holds one RR set per member collection in ``worlds[i]``."""
    script = [
        [(100 + j, tuple(sorted(members))) for j, members in enumerate(sets)]
        for sets in worlds
    ]
    return SketchStore(FakeSampler(script)).ensure_worlds(len(worlds))


def run(select, store, **kwargs):
    """``(picks or error message, selector.* counters)`` of one pass."""
    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            outcome = select(store, **kwargs)
        except SelectionError as error:
            outcome = f"SelectionError: {error}"
    counters = {
        name: value
        for name, value in registry.counter_values().items()
        if name.startswith("selector.")
    }
    return outcome, counters


def assert_matches_reference(store, **kwargs):
    expected = run(coverage_reference.max_coverage, store, **kwargs)
    assert run(max_coverage, store, **kwargs) == expected
    return expected


@contextlib.contextmanager
def numpy_mode(hide: bool):
    """Run the block as is, or with ``import numpy`` failing.

    Stores first indexed inside the hidden block build their postings
    without NumPy, so both passes take their pure-Python branches.
    """
    if not hide:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "numpy", None)
        patch.setattr(coverage_reference, "_np", None)
        yield


MODES = pytest.mark.parametrize("hide_numpy", [False, True], ids=["numpy", "no-numpy"])


class TestTieBreak:
    # One world, sets {1,2} {1} {0} {0} {2} {2} {1} {2}: gains 0:2, 1:3, 2:4.
    SETS = [(1, 2), (1,), (0,), (0,), (2,), (2,), (1,), (2,)]

    @MODES
    def test_stale_bound_wins_an_exact_tie(self, hide_numpy):
        """After 2 is picked, 1 pops first on its stale bound of 3; its
        exact gain of 2 ties node 0's bound of 2, and the popped node
        wins. An eager argmax breaking ties by node id would pick 0.
        Changing this rule changes blockers and needs a rebaseline."""
        with numpy_mode(hide_numpy):
            store = build_store([self.SETS])
            picks, counters = assert_matches_reference(store, budget=2)
        assert picks == [2, 1]
        assert counters == {
            "selector.sigma_evaluations": 5,
            "selector.marginal_gain_calls": 5,
            "selector.celf_queue_hits": 2,
            "selector.celf_reevaluations": 0,
        }


rr_worlds = st.integers(min_value=1, max_value=12).flatmap(
    lambda nodes: st.tuples(
        st.just(nodes),
        st.lists(
            st.lists(
                st.frozensets(st.integers(0, nodes - 1), max_size=nodes),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
    )
)


class TestMatchesFrozenReference:
    @MODES
    @settings(max_examples=60, deadline=None)
    @given(
        instance=rr_worlds,
        excluded=st.frozensets(st.integers(0, 13), max_size=5),
        data=st.data(),
    )
    def test_budget_mode(self, hide_numpy, instance, excluded, data):
        nodes, worlds = instance
        budget = data.draw(st.integers(0, nodes + 2), label="budget")
        with numpy_mode(hide_numpy):
            store = build_store(worlds)
            assert_matches_reference(store, budget=budget, excluded=excluded)

    @MODES
    @settings(max_examples=60, deadline=None)
    @given(
        instance=rr_worlds,
        excluded=st.frozensets(st.integers(0, 13), max_size=5),
        alpha=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
        spare_ends=st.integers(0, 2),
    )
    def test_budget_free_mode(self, hide_numpy, instance, excluded, alpha, spare_ends):
        _, worlds = instance
        end_count = max(1, max(len(sets) for sets in worlds) + spare_ends)
        with numpy_mode(hide_numpy):
            store = build_store(worlds)
            assert_matches_reference(
                store, excluded=excluded, alpha=alpha, end_count=end_count
            )

    @MODES
    def test_exhaustion_message(self, hide_numpy):
        # Node 0 is excluded, so set {0} can never be covered.
        with numpy_mode(hide_numpy):
            store = build_store([[(0,), (1,)]])
            outcome, _ = assert_matches_reference(
                store, excluded=[0], alpha=1.0, end_count=2
            )
        assert outcome == (
            "SelectionError: sketches exhausted at protected fraction 0.500"
            " < alpha=1.0"
        )


@pytest.fixture(scope="module")
def enron_store():
    """A warm serve store as the service builds one: enron-small (scale
    0.05, dataset seed 13), OPOAO with 8 steps, 32 worlds, seeds = the
    first 12 community ids. Returned as a state dict plus its sampler so
    each NumPy mode re-indexes its own copy."""
    from repro.bridge.rfst import find_bridge_end_ids
    from repro.experiments.harness import load_dataset
    from repro.rng import RngStream
    from repro.sketch.rrset import OPOAORRSampler

    dataset = load_dataset("enron-small", scale=0.05, seed=13)
    graph = dataset.graph.to_indexed()
    community = sorted(graph.indices(dataset.rumor_community_nodes))
    seeds = community[:12]
    end_ids = sorted(find_bridge_end_ids(graph, community, seeds))
    rng = RngStream(13, name="serve").fork("instance", *seeds)
    sampler = OPOAORRSampler(graph, seeds, end_ids, steps=8, rng=rng)
    store = SketchStore(sampler).ensure_worlds(32)
    return sampler, store.state_dict(), seeds


class TestEnronServeStore:
    @MODES
    def test_budgets_one_to_eight(self, enron_store, hide_numpy):
        sampler, state, seeds = enron_store
        with numpy_mode(hide_numpy):
            store = SketchStore(sampler).load_state(state)
            for budget in range(1, 9):
                picks, _ = assert_matches_reference(
                    store, budget=budget, excluded=seeds
                )
                assert len(picks) == budget

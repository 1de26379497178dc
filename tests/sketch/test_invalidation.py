"""Incremental sketch invalidation: refresh == from-scratch resampling.

Property harness for the dynamic-graph path. The contract under test:

* **Bit-identity**: after any edge-mutation sequence,
  ``store.refresh(touched)`` leaves the store's flat arrays identical
  to a store sampled from scratch on the mutated graph with the same
  base seed — worlds are pure functions of their replica index, and
  refresh resamples exactly the worlds whose footprint an update touched.
* **Statistical agreement** (different seeds): a refreshed store and an
  independently-seeded from-scratch store estimate the same σ̂ within
  the usual Monte-Carlo tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph.compact import IndexedDiGraph
from repro.graph.generators import erdos_renyi
from repro.rng import RngStream
from repro.sketch import kernels
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler
from repro.sketch.store import SketchStore

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-NumPy CI job
    HAVE_NUMPY = False

NODES = 40
RUMOR = [0, 1]
ENDS = [10, 11, 12, 13]


def build_graph(seed: int = 7) -> IndexedDiGraph:
    digraph = erdos_renyi(NODES, 0.08, rng=RngStream(seed), directed=True)
    return IndexedDiGraph.from_digraph(digraph)


def opoao_store(graph, worlds: int = 16, seed: int = 42) -> SketchStore:
    sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(seed))
    return SketchStore(sampler).ensure_worlds(worlds)


def assert_stores_identical(actual: SketchStore, expected: SketchStore):
    assert actual._members == expected._members
    assert actual._offsets == expected._offsets
    assert actual._roots == expected._roots
    assert actual._world_of == expected._world_of
    assert actual._sets_per_world == expected._sets_per_world
    assert actual._footprints == expected._footprints
    assert actual.nodes() == expected.nodes()
    for node in expected.nodes():
        assert list(actual.sets_containing(node)) == list(
            expected.sets_containing(node)
        )


def apply_mutation_step(graph: IndexedDiGraph, step_rng: RngStream):
    """One random batch: toggle up to 3 random (tail, head) pairs."""
    insertions, deletions = [], []
    claimed = set()
    for _ in range(3):
        tail = step_rng.randrange(graph.node_count)
        head = step_rng.randrange(graph.node_count)
        if tail == head or (tail, head) in claimed:
            continue
        claimed.add((tail, head))
        if head in graph.out[tail]:
            deletions.append((tail, head))
        else:
            insertions.append((tail, head))
    return graph.apply_updates(insertions, deletions)


class TestRefreshBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=7),
        mutation_seed=st.integers(min_value=0, max_value=1000),
        batches=st.integers(min_value=1, max_value=3),
    )
    def test_refresh_equals_from_scratch(
        self, graph_seed, mutation_seed, batches
    ):
        graph = build_graph(graph_seed)
        store = opoao_store(graph)
        rng = RngStream(mutation_seed, name="mutations")
        for batch in range(batches):
            touched = apply_mutation_step(graph, rng.fork("batch", batch))
            store.refresh(touched)
        assert_stores_identical(store, opoao_store(graph))

    def test_untouched_footprints_skip_resampling(self):
        digraph = erdos_renyi(NODES, 0.02, rng=RngStream(3), directed=True)
        graph = IndexedDiGraph.from_digraph(digraph)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=3, rng=RngStream(42))
        store = SketchStore(sampler).ensure_worlds(4)
        outside = [
            node
            for node in range(NODES)
            if all(node not in fp for fp in store._footprints)
        ]
        assert len(outside) >= 2, "graph too dense for this fixture"
        touched = graph.apply_updates([(outside[0], outside[1])], [])
        assert store.stale_worlds(touched) == []
        assert store.refresh(touched) == (0, 0)
        scratch = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=3, rng=RngStream(42))
        ).ensure_worlds(4)
        assert_stores_identical(store, scratch)

    def test_refresh_counts(self):
        graph = build_graph()
        store = opoao_store(graph)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        stale = store.stale_worlds(touched)
        expected_sets = sum(store._sets_per_world[w] for w in stale)
        worlds, sets = store.refresh(touched)
        assert worlds == len(stale)
        assert sets == expected_sets

    def test_growth_after_refresh_stays_pure(self):
        """Doubling a refreshed store == sampling the larger size fresh."""
        graph = build_graph()
        store = opoao_store(graph, worlds=8)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        store.refresh(touched)
        store.ensure_worlds(16)
        assert_stores_identical(store, opoao_store(graph, worlds=16))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_numpy_refresh_of_more_stale_worlds_than_one_block(self):
        """The numpy kernel resamples the stale worlds in several blocks."""
        graph = build_graph()
        worlds = 3 * kernels._BLOCK_WORLDS

        def store(backend):
            sampler = OPOAORRSampler(
                graph, RUMOR, ENDS, steps=8, rng=RngStream(42)
            )
            return SketchStore(sampler, backend=backend).ensure_worlds(worlds)

        refreshed = store("numpy")
        # Every world's footprint holds the rumor seeds, so all go stale.
        seed = RUMOR[0]
        touched = graph.apply_updates([], [(seed, graph.out[seed][0])])
        stale, _sets = refreshed.refresh(touched)
        assert stale == worlds
        assert_stores_identical(refreshed, store("numpy"))
        assert_stores_identical(refreshed, store("python"))

    def test_doam_refresh_equals_from_scratch(self):
        graph = build_graph(9)
        sampler = DOAMRRSampler(graph, RUMOR, ENDS)
        store = SketchStore(sampler).ensure_worlds(4)
        tail = next(t for t in range(NODES) if graph.out[t])
        touched = graph.apply_updates([], [(tail, graph.out[tail][0])])
        store.refresh(touched)
        scratch = SketchStore(
            DOAMRRSampler(graph, RUMOR, ENDS)
        ).ensure_worlds(4)
        assert_stores_identical(store, scratch)


class TestStatisticalAgreement:
    def test_refreshed_sigma_tracks_independent_seed(self):
        """A refreshed store and a fresh differently-seeded store agree
        statistically on σ̂ (they are independent estimators of the same
        quantity on the mutated graph)."""
        graph = build_graph()
        store = opoao_store(graph, worlds=64, seed=42)
        rng = RngStream(5, name="mutations")
        touched = apply_mutation_step(graph, rng)
        store.refresh(touched)
        other = opoao_store(graph, worlds=64, seed=1042)
        probe = [5, 20]
        mean_a, half_a = store.sigma_interval(probe, delta=0.05)
        mean_b, half_b = other.sigma_interval(probe, delta=0.05)
        assert abs(mean_a - mean_b) <= half_a + half_b + 1e-9


class TestFootprintPersistence:
    def test_state_dict_roundtrips_footprints(self):
        graph = build_graph()
        store = opoao_store(graph)
        state = store.state_dict()
        restored = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(42))
        ).load_state(state)
        assert restored._footprints == store._footprints

    def test_pre_footprint_checkpoint_is_rejected(self):
        """A state with no footprints cannot be refreshed exactly, and no
        sampler of this library writes one: loading it fails and leaves
        the store empty."""
        graph = build_graph()
        store = opoao_store(graph)
        state = store.state_dict()
        state.pop("footprints")
        restored = SketchStore(
            OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(42))
        )
        with pytest.raises(ValidationError, match="footprints"):
            restored.load_state(state)
        assert restored.worlds == 0 and restored.set_count == 0

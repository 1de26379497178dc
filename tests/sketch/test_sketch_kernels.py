"""Differential + oracle suite for :func:`repro.sketch.kernels.sample_worlds`.

The contract under test (see :mod:`repro.sketch.kernels`): for every
replica index, ``backend="numpy"`` returns the same
:class:`~repro.sketch.rrset.WorldSample` — same ``rr_sets`` (roots and
sorted members) and the same dependency ``footprint`` — as the
per-world python samplers, for both OPOAO and DOAM semantics. Plus an
exact small-graph oracle for the DOAM depth-bounded reverse BFS (this
module runs in the no-NumPy CI job; vectorized cases skip themselves).
Backend resolution is tested with the registry, in
``tests/kernels/test_registry.py``. The pick rule both paths share has
its own unit tests in ``test_pick_rule.py``.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.compact import IndexedDiGraph
from repro.graph.generators import erdos_renyi
from repro.kernels.registry import available_backends
from repro.rng import RngStream
from repro.sketch import kernels
from repro.sketch.kernels import sample_worlds
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler
from repro.sketch.store import SketchStore

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-NumPy CI job
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

NODES = 30
RUMOR = [0, 1]
ENDS = [8, 9, 10, 11]


def build_graph(seed: int, p: float = 0.1) -> IndexedDiGraph:
    digraph = erdos_renyi(NODES, p, rng=RngStream(seed), directed=True)
    return IndexedDiGraph.from_digraph(digraph)


def assert_worlds_identical(expected, actual):
    assert len(expected) == len(actual)
    for reference, candidate in zip(expected, actual):
        assert candidate.index == reference.index
        assert candidate.rr_sets == reference.rr_sets
        assert candidate.footprint == reference.footprint


@needs_numpy
class TestOPOAODifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=50),
        rng_seed=st.integers(min_value=0, max_value=10_000),
        # 4 and 8: the horizons the serve and select workloads sample at.
        steps=st.sampled_from([4, 8, 9]),
    )
    def test_bit_identical_per_replica(self, graph_seed, rng_seed, steps):
        graph = build_graph(graph_seed)

        def sampler():
            return OPOAORRSampler(
                graph, RUMOR, ENDS, steps=steps, rng=RngStream(rng_seed)
            )

        reference = sample_worlds(sampler(), range(6), backend="python")
        vectorized = sample_worlds(sampler(), range(6), backend="numpy")
        assert_worlds_identical(reference, vectorized)

    def test_out_of_order_and_repeated_indices(self):
        graph = build_graph(3)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(21))
        shuffled = [5, 0, 3, 3, 1]
        vectorized = sample_worlds(sampler, shuffled, backend="numpy")
        reference = [sampler.sample_world(index) for index in shuffled]
        assert_worlds_identical(reference, vectorized)

    def test_bit_identical_with_a_hub_past_two_to_the_sixteen(self):
        """Picks from an out-degree above 2^16, in the cascade and the rows.

        The rumor starts at the hub, so every head it picks lands in the
        footprint; the hub is also an in-neighbor of every end, so its
        choice row is drawn.
        """
        leaves = (1 << 16) + 37
        hub = 0
        ends = [leaves - 3, leaves - 2, leaves - 1, leaves]
        edges = [(hub, leaf) for leaf in range(1, leaves + 1)]
        edges += [(leaf, leaf % leaves + 1) for leaf in range(1, leaves + 1)]
        edges += [(ends[0], hub), (ends[0], 2), (2, ends[1]), (2, ends[2])]
        out = [[] for _ in range(leaves + 1)]
        inn = [[] for _ in range(leaves + 1)]
        for tail, head in edges:
            out[tail].append(head)
            inn[head].append(tail)
        graph = IndexedDiGraph(list(range(leaves + 1)), out, inn)
        assert graph.out_degree(hub) > 1 << 16

        def sampler():
            return OPOAORRSampler(
                graph, [hub, ends[0]], ends, steps=8, rng=RngStream(3)
            )

        reference = sample_worlds(sampler(), range(4), backend="python")
        vectorized = sample_worlds(sampler(), range(4), backend="numpy")
        assert_worlds_identical(reference, vectorized)
        assert any(world.rr_sets for world in reference)

    def test_horizon_past_frexp_range_defers_to_python(self):
        graph = build_graph(7)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=60, rng=RngStream(9))
        vectorized = sample_worlds(sampler, range(3), backend="numpy")
        reference = [sampler.sample_world(index) for index in range(3)]
        assert_worlds_identical(reference, vectorized)


@needs_numpy
class TestOPOAOBlocks:
    """A world does not depend on the block it is sampled in.

    The numpy kernel samples up to ``_BLOCK_WORLDS`` worlds per pass
    and splits the (world, end) rows of a pass into slack matrices of
    at most ``_BLOCK_CELLS`` cells; neither cut may change a world.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=50),
        density=st.sampled_from([0.05, 0.1, 0.2]),
        rng_seed=st.integers(min_value=0, max_value=10_000),
        steps=st.sampled_from([1, 2, 4, 8, 53]),
        indices=st.lists(
            st.integers(min_value=0, max_value=15), min_size=1, max_size=20
        ),
    )
    def test_one_call_equals_each_index_alone(
        self, graph_seed, density, rng_seed, steps, indices
    ):
        """Out-of-order, repeated indices in one call == one call each."""
        graph = build_graph(graph_seed, density)
        sampler = OPOAORRSampler(
            graph, RUMOR, ENDS, steps=steps, rng=RngStream(rng_seed)
        )
        together = sample_worlds(sampler, indices, backend="numpy")
        alone = [
            sample_worlds(sampler, [index], backend="numpy")[0]
            for index in indices
        ]
        reference = [sampler.sample_world(index) for index in indices]
        assert_worlds_identical(alone, together)
        assert_worlds_identical(reference, together)

    @pytest.mark.parametrize("block_worlds", [1, 2, 3])
    @pytest.mark.parametrize("steps", [3, 8])
    def test_blocks_that_break_mid_call(self, monkeypatch, block_worlds, steps):
        monkeypatch.setattr(kernels, "_BLOCK_WORLDS", block_worlds)
        graph = build_graph(11, 0.15)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=steps, rng=RngStream(5))
        indices = [7, 2, 9, 2, 0, 4, 11]
        vectorized = sample_worlds(sampler, indices, backend="numpy")
        reference = [sampler.sample_world(index) for index in indices]
        assert_worlds_identical(reference, vectorized)
        assert sum(len(world.rr_sets) for world in reference) > len(indices)

    @pytest.mark.parametrize("rows_per_slack", [1, 3])
    def test_rows_of_one_world_split_across_slack_matrices(
        self, monkeypatch, rows_per_slack
    ):
        """A slack matrix smaller than one world's rows: worlds split."""
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", rows_per_slack * NODES)
        graph = build_graph(11, 0.15)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(5))
        indices = list(range(10))
        reference = [sampler.sample_world(index) for index in indices]
        assert max(len(world.rr_sets) for world in reference) > rows_per_slack
        vectorized = sample_worlds(sampler, indices, backend="numpy")
        assert_worlds_identical(reference, vectorized)

    def test_block_with_a_world_that_has_no_at_risk_end(self):
        """Some worlds' rumor misses every end; their neighbours' do not."""
        # The rumor at 0 reaches the end 1 at step 1 or wanders off to 2.
        out = [[1, 2], [3], [3], [0]]
        inn = [[3], [0], [0], [1, 2]]
        graph = IndexedDiGraph(list(range(4)), out, inn)
        sampler = OPOAORRSampler(graph, [0], [1], steps=1, rng=RngStream(4))
        reference = [sampler.sample_world(index) for index in range(8)]
        assert any(world.rr_sets for world in reference)
        assert any(not world.rr_sets for world in reference)
        vectorized = sample_worlds(sampler, range(8), backend="numpy")
        assert_worlds_identical(reference, vectorized)

    def test_no_bridge_ends(self):
        graph = build_graph(3)
        sampler = OPOAORRSampler(graph, RUMOR, [], steps=4, rng=RngStream(2))
        vectorized = sample_worlds(sampler, range(3), backend="numpy")
        reference = [sampler.sample_world(index) for index in range(3)]
        assert_worlds_identical(reference, vectorized)


def _bfs_distances(adjacency, sources):
    """Exact hop distances from ``sources`` over an adjacency list."""
    distance = {node: 0 for node in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distance:
                distance[neighbor] = distance[node] + 1
                queue.append(neighbor)
    return distance


class TestDOAMDifferentialAndOracle:
    @needs_numpy
    @settings(max_examples=15, deadline=None)
    @given(graph_seed=st.integers(min_value=0, max_value=50))
    def test_bit_identical(self, graph_seed):
        graph = build_graph(graph_seed)
        reference = sample_worlds(
            DOAMRRSampler(graph, RUMOR, ENDS), [0], backend="python"
        )
        vectorized = sample_worlds(
            DOAMRRSampler(graph, RUMOR, ENDS), [0], backend="numpy"
        )
        assert_worlds_identical(reference, vectorized)

    @settings(max_examples=15, deadline=None)
    @given(graph_seed=st.integers(min_value=0, max_value=50))
    def test_exact_reverse_ball_oracle(self, graph_seed):
        """DOAM worlds == the brute-force membership criterion.

        ``u in RR(v)`` iff ``d(u -> v) <= t_R(v)`` (Theorem 2), checked
        against plain BFS distances with no shared code, on
        ``sample_worlds``' default backend.
        """
        graph = build_graph(graph_seed)
        out = [list(graph.out[node]) for node in range(graph.node_count)]
        inn = [list(graph.inn[node]) for node in range(graph.node_count)]
        arrival = _bfs_distances(out, RUMOR)
        world = sample_worlds(DOAMRRSampler(graph, RUMOR, ENDS), [0])[0]
        rr_by_root = dict(world.rr_sets)
        assert sorted(rr_by_root) == sorted(
            end for end in ENDS if end in arrival
        )
        for end, members in world.rr_sets:
            reverse = _bfs_distances(inn, [end])
            oracle = tuple(
                sorted(
                    node
                    for node, depth in reverse.items()
                    if depth <= arrival[end]
                )
            )
            assert members == oracle

    def test_world_follows_apply_updates(self):
        """The cached world is keyed on ``graph.version``: after an
        in-place update the sampler serves the mutated graph's world."""
        graph = build_graph(4)
        sampler = DOAMRRSampler(graph, RUMOR, ENDS)
        before = sample_worlds(sampler, [0])[0]
        # Every end gets a direct rumor in-edge, so its arrival becomes 1.
        shortcut = [
            (RUMOR[0], end) for end in ENDS if end not in graph.out[RUMOR[0]]
        ]
        graph.apply_updates(shortcut, [])
        after = sample_worlds(sampler, [0])[0]
        fresh = DOAMRRSampler(graph, RUMOR, ENDS).sample_world(0)
        assert after.rr_sets != before.rr_sets
        assert_worlds_identical([fresh], [after])


class TestRegistry:
    """``sample_worlds`` on the registry's python backend; resolution
    (unknown names, missing NumPy, ``auto``) is tested with the registry
    in ``tests/kernels/test_registry.py``."""

    def test_python_backend_always_available(self):
        assert "python" in available_backends()
        graph = build_graph(2)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(8))
        assert len(sample_worlds(sampler, [0], backend="python")) == 1

    def test_python_kernel_delegates_to_sampler(self):
        graph = build_graph(2)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(8))
        worlds = sample_worlds(sampler, range(3), backend="python")
        assert_worlds_identical(
            [sampler.sample_world(index) for index in range(3)], worlds
        )

    def test_sample_worlds_entry_point(self):
        graph = build_graph(2)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=6, rng=RngStream(8))
        worlds = sample_worlds(sampler, range(3), backend="python")
        assert [world.index for world in worlds] == [0, 1, 2]


class TestStoreBackends:
    def store(self, backend):
        graph = build_graph(6)
        sampler = OPOAORRSampler(graph, RUMOR, ENDS, steps=8, rng=RngStream(77))
        return SketchStore(sampler, backend=backend).ensure_worlds(12)

    @needs_numpy
    def test_store_arrays_identical_across_backends(self):
        reference = self.store("python")
        vectorized = self.store("numpy")
        assert reference._members == vectorized._members
        assert reference._offsets == vectorized._offsets
        assert reference._roots == vectorized._roots
        assert reference._world_of == vectorized._world_of
        assert reference._sets_per_world == vectorized._sets_per_world
        assert reference._footprints == vectorized._footprints
        assert reference.nodes() == vectorized.nodes()
        for node in reference.nodes():
            assert list(reference.sets_containing(node)) == list(
                vectorized.sets_containing(node)
            )

    def test_auto_backend_store_matches_python(self):
        """backend=None (auto) must produce the python store's arrays."""
        assert self.store(None)._members == self.store("python")._members

    def test_postings_are_ascending_and_complete(self):
        store = self.store("python")
        seen = 0
        for node in store.nodes():
            postings = list(store.sets_containing(node))
            assert postings == sorted(postings)
            for set_id in postings:
                assert node in store.members(set_id)
            seen += len(postings)
        assert seen == len(store._members)
        assert list(store.sets_containing(10**6)) == []

"""The counter-keyed rule every forward-kernel world draw goes through.

:func:`repro.rng.uniform` is evaluated one cell at a time without NumPy
and on whole ``uint64`` blocks with it, so the unit tests pin it three
ways: scalar == block on random and edge cells, golden values, and a
chi-square check of uniformity. :func:`repro.kernels.worlds.sample_worlds`
must give the same bits on both paths and draw replica ``i`` the same
way in any batch. The two-sample test ties the worlds it draws to the
earlier ``RngStream`` sampler (frozen in ``worlds_reference.py``) by
their race statistics, since the bits differ, and to each model's own
per-run draws.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.diffusion.base import SeedSets
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.errors import KernelError
from repro.graph.digraph import DiGraph
from repro.kernels import worlds as worlds_module
from repro.kernels.registry import resolve_backend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import sample_worlds
from repro.rng import RngStream, derive_seed, uniform
from tests.kernels import worlds_reference

try:
    import numpy

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-NumPy CI job
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

TOP_KEY = (1 << 63) - 1
TOP_ID = (1 << 31) - 1

SPECS = [
    KernelSpec("ic", probability=0.1),
    KernelSpec("ic"),  # weighted IC: edge weights are probabilities
    KernelSpec("lt"),
    KernelSpec("opoao"),
]


def block_uniforms(cells):
    """``uniform`` over ``(key, cell)`` pairs as one numpy block."""
    keys, values = zip(*cells)
    return uniform(
        numpy.array(keys, dtype=numpy.uint64),
        numpy.array(values, dtype=numpy.uint64),
    ).tolist()


def random_graph(nodes: int, edges: int, seed: int) -> DiGraph:
    """A seeded random digraph whose weights lie in [0.02, 0.3]."""
    rng = RngStream(seed, name="rule-graph")
    graph = DiGraph()
    graph.add_nodes(range(nodes))
    seen = set()
    while len(seen) < edges:
        tail, head = rng.randrange(nodes), rng.randrange(nodes)
        if tail == head or (tail, head) in seen:
            continue
        seen.add((tail, head))
        graph.add_edge(tail, head, weight=0.02 + 0.28 * rng.random())
    return graph


class TestUniformRule:
    @needs_numpy
    def test_scalar_equals_block_on_random_cells(self):
        draw = random.Random(7)
        cells = [
            (draw.randrange(1 << 63), draw.randrange(1 << 63))
            for _ in range(2000)
        ]
        assert block_uniforms(cells) == [uniform(*cell) for cell in cells]

    @needs_numpy
    def test_scalar_equals_block_on_edge_cells(self):
        cells = [
            (key, cell)
            for key in (0, 1, TOP_KEY)
            for cell in (
                0,
                TOP_ID,  # the largest edge position / node id
                (TOP_ID << 32) | 1,  # the largest node at hop 1
                (TOP_ID << 32) | 53,  # ... and at hop 53
            )
        ]
        assert block_uniforms(cells) == [uniform(*cell) for cell in cells]

    def test_golden_values(self):
        assert uniform(1, 0) == 0.3381666012719897
        assert uniform(derive_seed(7, "replica", 0), 12345) == 0.3374311406154855
        assert uniform(TOP_KEY, (TOP_ID << 32) | 53) == 0.3332954771421799

    def test_values_lie_in_the_unit_interval(self):
        draw = random.Random(3)
        for _ in range(2000):
            value = uniform(draw.randrange(1 << 63), draw.randrange(1 << 63))
            assert 0.0 <= value < 1.0

    def test_chi_square_uniform_over_sixteen_bins(self):
        """70 000 cells of one world fill 16 equal bins evenly."""
        key = derive_seed(11, "replica", 0)
        cells = 70_000
        counts = [0] * 16
        for cell in range(cells):
            counts[int(uniform(key, cell) * 16)] += 1
        expected = cells / 16
        chi_square = sum((count - expected) ** 2 / expected for count in counts)
        assert chi_square < 37.70  # 15 degrees of freedom, p = 0.001


class TestSampleWorlds:
    @pytest.fixture
    def graph(self):
        return random_graph(60, 240, seed=5).to_indexed()

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_world_does_not_depend_on_its_batch(self, graph, spec):
        whole = payload(sample_worlds(graph, spec, range(8), 6, seed=3))
        part = payload(sample_worlds(graph, spec, [5, 2], 6, seed=3))
        assert part == [whole[5], whole[2]]

    @needs_numpy
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_same_bits_with_and_without_numpy(self, graph, spec, monkeypatch):
        with_numpy = payload(sample_worlds(graph, spec, [0, 3, 9], 6, seed=17))
        monkeypatch.setattr(worlds_module, "_np", None)
        without = sample_worlds(graph, spec, [0, 3, 9], 6, seed=17)
        assert not hasattr(next(iter(without.data.values())), "tolist")
        assert payload(without) == with_numpy

    def test_opoao_draw_is_the_rule_at_its_cell(self, graph):
        worlds = sample_worlds(graph, KernelSpec("opoao"), [4], 5, seed=9)
        key = derive_seed(9, "replica", 4)
        picks = payload(worlds)[0]
        for hop in (1, 5):
            for node in (0, 59):
                assert picks[hop - 1][node] == uniform(key, (node << 32) | hop)

    def test_doam_draws_nothing(self, graph):
        worlds = sample_worlds(graph, KernelSpec("doam"), range(3), 5, seed=1)
        assert worlds.batch == 3 and worlds.data == {}

    def test_weighted_ic_rejects_weights_above_one(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2)])
        graph.add_edge(1, 2, weight=1.5)
        with pytest.raises(KernelError):
            sample_worlds(graph.to_indexed(), KernelSpec("ic"), range(2), 4, seed=1)


def payload(worlds):
    """A batch's one payload field (NumPy array or nested lists) as lists."""
    (data,) = worlds.data.values()
    return data.tolist() if hasattr(data, "tolist") else data


#: The two-sample cases: 400 worlds each on a fixed 200-node graph.
RUNS, HOPS = 400, 10
SEEDS = SeedSets(rumors=[0, 1, 2, 3, 4], protectors=[5, 6, 7, 8, 9])

#: The frozen sampler's LT worlds are not LT worlds: it rebuilds
#: ``rng.replica(world)`` for every node, so all nodes of a world share
#: one threshold. The rule's LT worlds are checked against the per-run
#: model below instead.
FROZEN_LT_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="the frozen sampler draws one threshold per LT world, not per node",
)


@pytest.fixture(scope="module")
def two_sample_graph():
    return random_graph(200, 800, seed=23).to_indexed()


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec("ic", probability=0.1),
        KernelSpec("ic"),
        pytest.param(KernelSpec("lt"), marks=FROZEN_LT_DEFECT),
        KernelSpec("opoao"),
    ],
    ids=repr,
)
def test_rule_matches_the_frozen_sampler_in_distribution(two_sample_graph, spec):
    """Two-sample z-test: the rule's worlds race like the RngStream worlds.

    Mean final infected and mean final protected must agree within
    |z| <= 4 (fixed in advance, not tuned).
    """
    graph = two_sample_graph
    backend = resolve_backend("auto")
    samples = []
    for worlds in (
        sample_worlds(graph, spec, range(RUNS), HOPS, seed=31),
        worlds_reference.sample_shared_worlds(graph.csr(), spec, RUNS, HOPS, seed=31),
    ):
        outcome = backend.run_worlds(graph, spec, worlds, SEEDS, HOPS)
        samples.append((
            [outcome.final_infected(world) for world in range(RUNS)],
            [outcome.final_protected(world) for world in range(RUNS)],
        ))
    assert_same_means(*samples)


@pytest.mark.parametrize(
    "model",
    [
        CompetitiveICModel(probability=0.1),
        CompetitiveICModel(probability=None),
        CompetitiveLTModel(),
        OPOAOModel(),
    ],
    ids=lambda model: model.name,
)
def test_rule_matches_the_per_run_models_in_distribution(two_sample_graph, model):
    """Two-sample z-test against each model's own per-run draws, |z| <= 4."""
    samples = []
    for backend in (None, "auto"):
        records = MonteCarloSimulator(
            model, runs=RUNS, max_hops=HOPS, backend=backend
        ).simulate(two_sample_graph, SEEDS, rng=RngStream(31)).records
        samples.append((
            [record.final_infected for record in records],
            [record.final_protected for record in records],
        ))
    assert_same_means(*samples)


def assert_same_means(first, second):
    """Each column's means agree within |z| <= 4 (Welch's two-sample z)."""
    for left, right in zip(first, second):
        variance = _variance(left) / len(left) + _variance(right) / len(right)
        gap = sum(left) / len(left) - sum(right) / len(right)
        if variance == 0.0:
            assert gap == 0.0
            continue
        assert abs(gap / math.sqrt(variance)) <= 4.0


def _variance(values):
    mean = sum(values) / len(values)
    return sum((value - mean) ** 2 for value in values) / (len(values) - 1)

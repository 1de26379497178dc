"""The counter-keyed pick rule every OPOAO RR-world draw goes through.

:func:`repro.rng.pick` is evaluated one cell at a time by the
python sampler and on whole ``uint64`` blocks by the numpy kernel, so
the unit tests pin it three ways: scalar == block on random and edge
inputs, golden values, and a chi-square check of uniformity. The
two-sample test ties the RR worlds it draws to the earlier per-node
``random.Random`` draws (frozen in ``rrset_reference.py``) by their
statistics, since the bits differ.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graph.compact import IndexedDiGraph
from repro.graph.generators import erdos_renyi
from repro.rng import RngStream, pick
from repro.sketch.kernels import sample_worlds
from repro.sketch.rrset import OPOAORRSampler
from tests.sketch import rrset_reference

try:
    import numpy

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-NumPy CI job
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

TOP_KEY = (1 << 63) - 1
TOP_ID = (1 << 31) - 1


def block_picks(cells):
    """``pick`` over ``(key, node, step, degree)`` cells as one numpy block."""
    columns = [numpy.array(column, dtype=numpy.uint64) for column in zip(*cells)]
    return pick(*columns).tolist()


class TestPickRule:
    @needs_numpy
    def test_scalar_equals_block_on_random_cells(self):
        draw = random.Random(7)
        cells = [
            (
                draw.randrange(1 << 63),
                draw.randrange(1 << 31),
                draw.randint(1, 53),
                draw.randint(1, TOP_ID),
            )
            for _ in range(2000)
        ]
        assert block_picks(cells) == [pick(*cell) for cell in cells]

    @needs_numpy
    def test_scalar_equals_block_on_edge_cells(self):
        cells = [
            (key, node, step, degree)
            for key in (0, 1, TOP_KEY, 0x0123456789ABCDEF)
            for node in (0, 1, TOP_ID)
            for step in (1, 53)
            for degree in (1, 2, TOP_ID)
        ]
        scalar = [pick(*cell) for cell in cells]
        assert block_picks(cells) == scalar
        for (_key, _node, _step, degree), value in zip(cells, scalar):
            assert 0 <= value < degree

    @needs_numpy
    def test_python_int_key_and_step_broadcast_against_blocks(self):
        nodes = numpy.arange(50, dtype=numpy.uint64)
        degrees = nodes % 9 + 1
        block = pick(TOP_KEY, nodes, 5, degrees).tolist()
        assert block == [pick(TOP_KEY, node, 5, node % 9 + 1) for node in range(50)]

    def test_golden_values(self):
        assert pick(0x0123456789ABCDEF, 5, 3, 10) == 2
        assert pick(1, 0, 1, TOP_ID) == 1106654261
        assert pick(TOP_KEY, TOP_ID, 53, 1000) == 333

    def test_uniform_over_one_degree(self):
        """Chi-square over 80 000 cells of degree 7, at level 0.001.

        22.458 is the 0.999 quantile of chi-square with 6 degrees of
        freedom; the draws are fixed, so the verdict is too.
        """
        degree = 7
        counts = [0] * degree
        for node in range(10_000):
            for step in range(1, 9):
                counts[pick(0x5EED, node, step, degree)] += 1
        expected = sum(counts) / degree
        statistic = sum((count - expected) ** 2 / expected for count in counts)
        assert statistic < 22.458


#: Worlds per sampler and horizon (4 standard errors is fixed below).
TWO_SAMPLE_WORLDS = {4: 600, 8: 300}


def _mean_and_variance(values):
    mean = sum(values) / len(values)
    return mean, sum((value - mean) ** 2 for value in values) / (len(values) - 1)


class TestAgainstEarlierDraws:
    """The new draws sample the same RR worlds as the frozen ones."""

    @pytest.fixture(scope="class")
    def graph(self):
        digraph = erdos_renyi(200, 0.02, rng=RngStream(17), directed=True)
        return IndexedDiGraph.from_digraph(digraph)

    @pytest.mark.parametrize("steps", [4, 8])
    def test_sets_and_members_per_world_agree(self, graph, steps):
        worlds = TWO_SAMPLE_WORLDS[steps]
        rumors = list(range(0, 200, 40))
        ends = list(range(3, 200, 16))
        frozen = OPOAORRSampler(graph, rumors, ends, steps=steps, rng=RngStream(101))
        earlier = [rrset_reference.sample_world(frozen, index) for index in range(worlds)]
        current = [
            world.rr_sets
            for world in sample_worlds(
                OPOAORRSampler(graph, rumors, ends, steps=steps, rng=RngStream(202)),
                range(worlds),
            )
        ]
        measures = {
            "sets": len,
            "members": lambda rr_sets: sum(len(members) for _root, members in rr_sets),
        }
        for name, measure in measures.items():
            mean_a, var_a = _mean_and_variance([measure(w) for w in earlier])
            mean_b, var_b = _mean_and_variance([measure(w) for w in current])
            z = (mean_a - mean_b) / math.sqrt(var_a / worlds + var_b / worlds)
            assert abs(z) <= 4.0, (name, mean_a, mean_b, z)

"""Differential tests: NumPy kernels vs the pure-Python reference.

Both backends consuming the *same*
:class:`~repro.kernels.worlds.WorldBatch` must return byte-for-byte
equal final states and per-hop series, for every model kind. Every
batch comes from the one sampler,
:func:`~repro.kernels.worlds.sample_worlds`, so σ̂ and the protected
fraction are equal on both backends too, not merely close.
"""

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.diffusion.base import SeedSets  # noqa: E402
from repro.diffusion.doam import DOAMModel  # noqa: E402
from repro.diffusion.ic import CompetitiveICModel  # noqa: E402
from repro.diffusion.lt import CompetitiveLTModel  # noqa: E402
from repro.diffusion.opoao import OPOAOModel  # noqa: E402
from repro.graph.digraph import DiGraph  # noqa: E402
from repro.kernels.numpy_backend import NumpyKernelBackend  # noqa: E402
from repro.kernels.python_backend import PythonKernelBackend  # noqa: E402
from repro.kernels.sigma import BatchedSigmaEvaluator  # noqa: E402
from repro.kernels.spec import KernelSpec  # noqa: E402
from repro.kernels.worlds import sample_worlds  # noqa: E402
from repro.rng import RngStream  # noqa: E402

SPECS = [
    KernelSpec("ic", probability=0.4),
    KernelSpec("ic"),  # weighted IC: edge weights are probabilities
    KernelSpec("lt"),
    KernelSpec("opoao"),
    KernelSpec("doam"),
]

MODELS = [
    CompetitiveICModel(probability=0.4),
    CompetitiveLTModel(),
    OPOAOModel(),
    DOAMModel(),
]


def random_graph(nodes: int, edges: int, seed: int, weighted: bool = False):
    """A seeded random digraph (labels == ids, insertion order fixed)."""
    rng = RngStream(seed, name="equiv-graph")
    graph = DiGraph()
    graph.add_nodes(range(nodes))
    seen = set()
    while len(seen) < edges:
        tail = rng.randrange(nodes)
        head = rng.randrange(nodes)
        if tail == head or (tail, head) in seen:
            continue
        seen.add((tail, head))
        weight = rng.random() if weighted else 1.0
        graph.add_edge(tail, head, weight=max(weight, 0.05))
    return graph


@pytest.fixture(scope="module")
def backends():
    return PythonKernelBackend(), NumpyKernelBackend()


@pytest.fixture(scope="module")
def instance():
    """A mid-size weighted digraph with rumor and protector seeds."""
    graph = random_graph(40, 160, seed=7, weighted=True).to_indexed()
    seeds = SeedSets(rumors=[0, 3, 11], protectors=[5, 8])
    return graph, seeds


class TestBitIdenticalOnSharedWorlds:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: repr(s))
    def test_states_and_series_identical(self, backends, instance, spec):
        python_backend, numpy_backend = backends
        graph, seeds = instance
        worlds = sample_worlds(graph, spec, range(10), 16, seed=99)
        reference = python_backend.run_worlds(graph, spec, worlds, seeds, 16)
        vectorized = numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)
        assert vectorized.hops == reference.hops
        assert vectorized.batch == reference.batch
        for world in range(reference.batch):
            assert vectorized.states_row(world) == reference.states_row(world)
            for hop in range(reference.hops + 1):
                assert vectorized.infected_at(world, hop) == reference.infected_at(
                    world, hop
                )
                assert vectorized.protected_at(
                    world, hop
                ) == reference.protected_at(world, hop)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: repr(s))
    def test_no_protector_baseline_identical(self, backends, instance, spec):
        python_backend, numpy_backend = backends
        graph, _ = instance
        seeds = SeedSets(rumors=[0, 3, 11])
        worlds = sample_worlds(graph, spec, range(6), 16, seed=4242)
        reference = python_backend.run_worlds(graph, spec, worlds, seeds, 16)
        vectorized = numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)
        for world in range(reference.batch):
            assert vectorized.states_row(world) == reference.states_row(world)

    def test_replay_is_idempotent(self, backends, instance):
        """Replaying one batch twice (the sigma pattern) must not mutate it."""
        _, numpy_backend = backends
        graph, seeds = instance
        spec = KernelSpec("ic", probability=0.4)
        worlds = sample_worlds(graph, spec, range(8), 16, seed=5)
        first = numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)
        second = numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)
        for world in range(first.batch):
            assert first.states_row(world) == second.states_row(world)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: repr(s))
    def test_identical_after_in_place_update(self, backends, spec):
        """A graph mutated in place races on its new edges on both backends."""
        python_backend, numpy_backend = backends
        graph = random_graph(40, 160, seed=11, weighted=True).to_indexed()
        seeds = SeedSets(rumors=[0, 3], protectors=[5])
        worlds = sample_worlds(graph, spec, range(4), 16, seed=3)
        numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)  # warm caches
        graph.apply_updates([], [(0, head) for head in graph.out[0]])
        worlds = sample_worlds(graph, spec, range(4), 16, seed=3)
        reference = python_backend.run_worlds(graph, spec, worlds, seeds, 16)
        vectorized = numpy_backend.run_worlds(graph, spec, worlds, seeds, 16)
        for world in range(reference.batch):
            assert vectorized.states_row(world) == reference.states_row(world)


class TestSharedWorldSigmaSets:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_blocked_and_protected_sets_identical(self, fig2_context, model):
        """Per-world infected bridge-end *sets* match exactly on shared worlds."""
        evaluators = [
            BatchedSigmaEvaluator(
                fig2_context,
                model=model,
                runs=24,
                max_hops=16,
                rng=RngStream(77, name="sigma"),
                backend=name,
            )
            for name in ("python", "numpy")
        ]
        protectors = sorted(fig2_context.bridge_ends)[:2]
        py, vec = evaluators
        assert py.baseline == vec.baseline
        assert py.infected_end_sets(
            py._protector_ids(protectors)
        ) == vec.infected_end_sets(vec._protector_ids(protectors))
        assert py.sigma(protectors) == vec.sigma(protectors)
        assert py.protected_fraction(protectors) == vec.protected_fraction(
            protectors
        )


class TestNativeSamplingStatistics:
    """Each backend's default evaluator: the same worlds, the same estimates."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_sigma_agrees_within_ci(self, fig2_context, model):
        estimates = {}
        for name in ("python", "numpy"):
            evaluator = BatchedSigmaEvaluator(
                fig2_context,
                model=model,
                runs=600,
                max_hops=16,
                rng=RngStream(3, name="sigma"),
                backend=name,
            )
            protectors = sorted(fig2_context.bridge_ends)[:2]
            estimates[name] = (
                evaluator.sigma(protectors),
                evaluator.protected_fraction(protectors),
            )
        assert estimates["python"] == estimates["numpy"]

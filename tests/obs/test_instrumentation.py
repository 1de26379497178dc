"""Instrumentation behavior: serial/parallel equality and null-default no-ops."""

import pytest

from repro.diffusion.base import SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.exec.pool import ParallelExecutor
from repro.graph.digraph import DiGraph
from repro.kernels.python_backend import PythonKernelBackend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import sample_worlds
from repro.obs import NULL_REGISTRY, MetricsRegistry, metrics, use_registry
from repro.rng import RngStream


@pytest.fixture
def star():
    return DiGraph.from_edges([(0, i) for i in range(1, 12)])


@pytest.fixture
def ladder():
    """Two 10-node chains joined by alternating rungs (19 + 10 edges)."""
    edges = (
        [(i, i + 1) for i in range(9)]
        + [(10 + i, 11 + i) for i in range(9)]
        + [(i, 10 + i) for i in range(0, 10, 2)]
        + [(10 + i, i) for i in range(1, 10, 2)]
    )
    indexed = DiGraph.from_edges(edges).to_indexed()
    seeds = SeedSets(rumors=[indexed.index(0)], protectors=[indexed.index(13)])
    return indexed, seeds


class TestSerialParallelEquality:
    def test_identical_work_counters(self, star):
        """One registry per worker + snapshot merge == one serial registry."""
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            MonteCarloSimulator(OPOAOModel(), runs=12, max_hops=6).simulate(
                indexed, seeds, rng=RngStream(5)
            )
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry), ParallelExecutor(3) as executor:
            MonteCarloSimulator(
                OPOAOModel(), runs=12, max_hops=6, executor=executor
            ).simulate(indexed, seeds, rng=RngStream(5))
        # exec.* is pool bookkeeping (pool created, graph published) that a
        # serial run by definition never emits; the work counters must match.
        parallel_work = {
            name: value
            for name, value in parallel_registry.counter_values().items()
            if not name.startswith("exec.")
        }
        assert parallel_work == serial_registry.counter_values()
        assert serial_registry.counter_value("sim.worlds") == 12
        assert serial_registry.counter_value("sim.runs") == 12

    def test_single_process_inline_path_counts_too(self, star):
        indexed = star.to_indexed()
        registry = MetricsRegistry()
        with use_registry(registry):
            MonteCarloSimulator(
                OPOAOModel(), runs=5, max_hops=4, executor=ParallelExecutor(1)
            ).simulate(indexed, SeedSets(rumors=[0]), rng=RngStream(6))
        assert registry.counter_value("sim.worlds") == 5
        assert registry.counter_value("sim.node_visits") > 0

    def test_disabled_parent_ships_no_snapshots(self, star, two_workers):
        indexed = star.to_indexed()
        assert metrics() is NULL_REGISTRY
        aggregate = MonteCarloSimulator(
            OPOAOModel(), runs=6, max_hops=4, executor=two_workers
        ).simulate(indexed, SeedSets(rumors=[0]), rng=RngStream(9))
        assert aggregate.runs == 6
        assert NULL_REGISTRY.to_dict()["counters"] == {}


class TestNullDefaultNoOp:
    def test_simulation_outcome_unaffected_by_registry(self, star):
        """Instrumentation must never change simulation results."""
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        simulator = MonteCarloSimulator(OPOAOModel(), runs=8, max_hops=5)
        bare = simulator.simulate(indexed, seeds, rng=RngStream(3))
        with use_registry(MetricsRegistry()):
            instrumented = simulator.simulate(indexed, seeds, rng=RngStream(3))
        assert bare.infected_per_hop == instrumented.infected_per_hop
        assert bare.final_infected.mean == instrumented.final_infected.mean

    def test_doam_counters_flow_when_enabled(self, star):
        indexed = star.to_indexed()
        registry = MetricsRegistry()
        with use_registry(registry):
            DOAMModel().run(indexed, SeedSets(rumors=[0]), max_hops=8)
        counters = registry.counter_values()
        assert counters["sim.runs"] == 1
        assert counters["sim.node_visits"] > 0
        assert counters["sim.edge_visits"] > 0

    def test_null_registry_untouched_by_default_run(self, star):
        indexed = star.to_indexed()
        assert metrics() is NULL_REGISTRY
        DOAMModel().run(indexed, SeedSets(rumors=[0]), max_hops=8)
        document = NULL_REGISTRY.to_dict()
        assert document["counters"] == {}
        assert document["timers"] == {}


class TestExactWorkCounters:
    """The exact work counters of each path on one small fixed graph."""

    @pytest.mark.parametrize(
        "max_hops, node_visits, edge_visits",
        [(3, 10, 16), (31, 20, 28)],  # the horizon cuts the race at 3 hops
    )
    def test_doam_visits(self, ladder, max_hops, node_visits, edge_visits):
        indexed, seeds = ladder
        registry = MetricsRegistry()
        with use_registry(registry):
            DOAMModel().run(indexed, seeds, max_hops=max_hops)
        assert registry.counter_value("sim.node_visits") == node_visits
        assert registry.counter_value("sim.edge_visits") == edge_visits

    def test_opoao_visits(self, ladder):
        indexed, seeds = ladder
        registry = MetricsRegistry()
        with use_registry(registry):
            for seed in range(4):
                OPOAOModel().run(indexed, seeds, rng=RngStream(seed), max_hops=6)
        assert registry.counter_value("sim.node_visits") == 78
        assert registry.counter_value("sim.edge_visits") == 78
        assert registry.counter_value("sim.rounds") == 24

    @pytest.mark.parametrize(
        "kind, hops, activations",
        [("ic", 1, 16), ("lt", 6, 54), ("opoao", 6, 64), ("doam", 6, 76)],
    )
    def test_python_kernel_counts_kernel_work_only(
        self, ladder, kind, hops, activations
    ):
        indexed, seeds = ladder
        spec = KernelSpec(kind, probability=0.5) if kind == "ic" else KernelSpec(kind)
        worlds = sample_worlds(indexed, spec, range(4), 6, 3)
        registry = MetricsRegistry()
        with use_registry(registry):
            PythonKernelBackend().run_worlds(indexed, spec, worlds, seeds, 6)
        assert registry.counter_values() == {
            "kernel.activations": activations,
            "kernel.batches": 1,
            "kernel.hops": hops,
            "kernel.worlds": 4,
        }

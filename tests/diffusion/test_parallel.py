"""The Monte-Carlo simulator over a process pool: serial-identical records."""

import pytest

from repro.diffusion.base import INACTIVE, INFECTED, PROTECTED, SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import (
    MonteCarloSimulator,
    ReplicaRecord,
    SimulationAggregate,
)
from repro.exec.pool import ParallelExecutor
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.kernels.registry import available_backends
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream
from repro.utils.stats import RunningStats


@pytest.fixture
def star():
    return DiGraph.from_edges([(0, i) for i in range(1, 10)])


def expected_record(outcome, max_hops, end_ids):
    """The record of one direct ``DiffusionModel.run`` outcome, built here
    from its trace and states, independently of the simulator's engine."""
    trace, states = outcome.trace, outcome.states
    ends = [states[end] for end in end_ids]
    return ReplicaRecord(
        tuple(trace.infected_at(hop) for hop in range(max_hops + 1)),
        tuple(trace.protected_at(hop) for hop in range(max_hops + 1)),
        outcome.infected_count,
        outcome.protected_count,
        (
            ends.count(INFECTED),
            sum(1 for state in ends if state >= PROTECTED),
            ends.count(INACTIVE),
        ),
    )


class TestEquivalenceWithSerial:
    def test_identical_aggregates(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        serial = MonteCarloSimulator(OPOAOModel(), runs=12, max_hops=6).simulate(
            indexed, seeds, rng=RngStream(5)
        )
        with ParallelExecutor(3) as executor:
            parallel = MonteCarloSimulator(
                OPOAOModel(), runs=12, max_hops=6, executor=executor
            ).simulate(indexed, seeds, rng=RngStream(5))
        assert parallel.runs == serial.runs == 12
        # Workers ship per-replica records and the parent folds them in
        # replica order, so the aggregate is bit-identical to serial —
        # exact equality, variance and Welford state included.
        assert parallel.infected_per_hop == serial.infected_per_hop
        assert parallel.protected_per_hop == serial.protected_per_hop
        assert parallel.final_infected.mean == serial.final_infected.mean
        assert parallel.final_infected.variance == serial.final_infected.variance
        assert parallel.final_infected.minimum == serial.final_infected.minimum
        assert parallel.final_infected.maximum == serial.final_infected.maximum

    def test_single_process_path(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        parallel = MonteCarloSimulator(
            OPOAOModel(), runs=5, max_hops=4, executor=ParallelExecutor(1)
        ).simulate(indexed, seeds, rng=RngStream(6))
        serial = MonteCarloSimulator(OPOAOModel(), runs=5, max_hops=4).simulate(
            indexed, seeds, rng=RngStream(6)
        )
        assert parallel.infected_per_hop == serial.infected_per_hop

    def test_deterministic_model_single_run(self, chain, two_workers):
        indexed = chain.to_indexed()
        aggregate = MonteCarloSimulator(
            DOAMModel(), runs=99, executor=two_workers
        ).simulate(indexed, SeedSets(rumors=[0]))
        assert aggregate.runs == 1
        assert aggregate.final_infected.mean == 6

    def test_rng_required(self, star):
        simulator = MonteCarloSimulator(OPOAOModel(), runs=3)
        with pytest.raises(ValueError):
            simulator.simulate(star.to_indexed(), SeedSets(rumors=[0]))


class TestKernelEngine:
    """``backend=`` runs on the same replica loop: backend-, pool- and
    chunking-independent records."""

    @pytest.mark.parametrize(
        "model",
        [CompetitiveICModel(probability=0.3), CompetitiveLTModel(), OPOAOModel()],
        ids=lambda model: model.name,
    )
    def test_records_equal_on_every_backend_and_the_pool(self, two_workers, model):
        graph = erdos_renyi(40, 0.1, RngStream(4)).to_indexed()

        def records(backend, executor=None):
            return MonteCarloSimulator(
                model, runs=12, max_hops=8, backend=backend, executor=executor
            ).simulate(
                graph, SeedSets(rumors=[0, 1], protectors=[2]),
                rng=RngStream(5), end_ids=range(10, 20),
            ).records

        serial = records("python")
        assert len(serial) == 12
        assert records("python", two_workers) == serial
        if "numpy" in available_backends():
            assert records("numpy") == serial
            assert records("numpy", two_workers) == serial


class TestSimulateDetailed:
    def test_records_match_serial_outcomes(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        end_ids = (3, 4, 5)
        expected = []
        for replica in range(9):
            outcome = model.run(indexed, seeds, rng=RngStream(8).replica(replica), max_hops=6)
            expected.append(expected_record(outcome, 6, end_ids))
        with ParallelExecutor(3) as executor:
            records = MonteCarloSimulator(
                model, runs=9, max_hops=6, executor=executor
            ).simulate(indexed, seeds, rng=RngStream(8), end_ids=end_ids).records
        assert records == expected

    def test_deterministic_model_records(self, chain, two_workers):
        indexed = chain.to_indexed()
        aggregate = MonteCarloSimulator(
            DOAMModel(), runs=50, executor=two_workers
        ).simulate(indexed, SeedSets(rumors=[0]), end_ids=(5,))
        assert aggregate.runs == 1
        assert len(aggregate.records) == 1
        # the chain end is infected
        assert aggregate.records[0].end_counts == (1, 0, 0)

    def test_record_outcome_classifies_ends(self, chain):
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0], protectors=[3])
        outcome = DOAMModel().run(indexed, seeds, max_hops=31)
        (record,) = MonteCarloSimulator(DOAMModel(), max_hops=31).simulate(
            indexed, seeds, end_ids=(2, 4, 5)
        ).records
        assert isinstance(record, ReplicaRecord)
        assert record == expected_record(outcome, 31, (2, 4, 5))
        assert outcome.states[2] == INFECTED
        assert outcome.states[4] == PROTECTED
        assert record.end_counts == (1, 2, 0)
        assert len(record.infected_series) == 32
        assert record.final_infected == outcome.infected_count

    def test_sim_worlds_counter_matches_serial(self, star, two_workers):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            MonteCarloSimulator(OPOAOModel(), runs=10, max_hops=5).simulate(
                indexed, seeds, rng=RngStream(4)
            )
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry):
            MonteCarloSimulator(
                OPOAOModel(), runs=10, max_hops=5, executor=two_workers
            ).simulate(indexed, seeds, rng=RngStream(4))
        # Drop timers (never deterministic) and exec.* fault-bookkeeping
        # counters (present only under the CI fault-injection leg).
        serial_counters = {
            name: value
            for name, value in serial_registry.counter_values().items()
            if not name.startswith("time.") and not name.startswith("exec.")
        }
        parallel_counters = {
            name: value
            for name, value in parallel_registry.counter_values().items()
            if not name.startswith("time.") and not name.startswith("exec.")
        }
        assert parallel_counters == serial_counters
        assert parallel_counters["sim.worlds"] == 10


class TestEvaluateProtectorsWorkers:
    def test_bit_identical_evaluation(self, star, two_workers):
        from repro.algorithms.base import SelectionContext
        from repro.lcrb.evaluation import evaluate_protectors

        graph = DiGraph.from_edges(
            [(0, i) for i in range(1, 10)] + [(i, i + 10) for i in range(1, 6)]
        )
        context = SelectionContext(graph, list(range(10)), [0])
        model = OPOAOModel()
        serial = evaluate_protectors(
            context, [1, 2], model, runs=10, max_hops=6, rng=RngStream(3)
        )
        parallel = evaluate_protectors(
            context, [1, 2], model, runs=10, max_hops=6, rng=RngStream(3),
            executor=two_workers,
        )
        assert parallel.final_infected_samples == serial.final_infected_samples
        assert parallel.infected_per_hop == serial.infected_per_hop
        assert parallel.bridge_infected.mean == serial.bridge_infected.mean
        assert parallel.bridge_infected.variance == serial.bridge_infected.variance
        assert parallel.bridge_protected.mean == serial.bridge_protected.mean
        assert parallel.bridge_untouched.mean == serial.bridge_untouched.mean
        assert (
            parallel.protected_bridge_fraction == serial.protected_bridge_fraction
        )


class TestAggregateAddSeries:
    """``add`` folds one record's per-hop series into the aggregate."""

    def test_add_record_matches_trace(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        aggregate = SimulationAggregate(5)
        at_hop_two, finals = RunningStats(), RunningStats()
        for replica in range(6):
            outcome = model.run(
                indexed, seeds, rng=RngStream(11).replica(replica), max_hops=5
            )
            aggregate.add(expected_record(outcome, 5, ()))
            at_hop_two.add(outcome.trace.infected_at(2))
            finals.add(outcome.infected_count)
        assert aggregate.runs == 6
        assert aggregate.infected_per_hop[2] == at_hop_two.mean
        assert aggregate.final_infected.variance == finals.variance

    def test_add_series_length_checked(self):
        aggregate = SimulationAggregate(4)
        with pytest.raises(ValueError):
            aggregate.add(ReplicaRecord((1, 2), (0, 0), 2, 0, (0, 0, 0)))

"""Unit tests for the parallel Monte-Carlo simulator."""

import pytest

from repro.diffusion.base import INFECTED, PROTECTED, SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.parallel import (
    ParallelMonteCarloSimulator,
    ReplicaRecord,
    record_outcome,
)
from repro.diffusion.simulation import MonteCarloSimulator, SimulationAggregate
from repro.exec.pool import ParallelExecutor
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream


@pytest.fixture
def star():
    return DiGraph.from_edges([(0, i) for i in range(1, 10)])


class TestEquivalenceWithSerial:
    def test_identical_aggregates(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        serial = MonteCarloSimulator(OPOAOModel(), runs=12, max_hops=6).simulate(
            indexed, seeds, rng=RngStream(5)
        )
        with ParallelExecutor(3) as executor:
            parallel = ParallelMonteCarloSimulator(
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
        parallel = ParallelMonteCarloSimulator(
            OPOAOModel(), runs=5, max_hops=4
        ).simulate(indexed, seeds, rng=RngStream(6))
        serial = MonteCarloSimulator(OPOAOModel(), runs=5, max_hops=4).simulate(
            indexed, seeds, rng=RngStream(6)
        )
        assert parallel.infected_per_hop == serial.infected_per_hop

    def test_deterministic_model_single_run(self, chain, two_workers):
        indexed = chain.to_indexed()
        aggregate = ParallelMonteCarloSimulator(
            DOAMModel(), runs=99, executor=two_workers
        ).simulate(indexed, SeedSets(rumors=[0]))
        assert aggregate.runs == 1
        assert aggregate.final_infected.mean == 6

    def test_rng_required(self, star):
        simulator = ParallelMonteCarloSimulator(OPOAOModel(), runs=3)
        with pytest.raises(ValueError):
            simulator.simulate(star.to_indexed(), SeedSets(rumors=[0]))


class TestSimulateDetailed:
    def test_records_match_serial_outcomes(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        end_ids = (3, 4, 5)
        expected = []
        for replica in range(9):
            outcome = model.run(indexed, seeds, rng=RngStream(8).replica(replica), max_hops=6)
            expected.append(record_outcome(outcome, 6, end_ids))
        with ParallelExecutor(3) as executor:
            _, records = ParallelMonteCarloSimulator(
                model, runs=9, max_hops=6, executor=executor
            ).simulate_detailed(indexed, seeds, rng=RngStream(8), end_ids=end_ids)
        assert records == expected

    def test_deterministic_model_records(self, chain, two_workers):
        indexed = chain.to_indexed()
        aggregate, records = ParallelMonteCarloSimulator(
            DOAMModel(), runs=50, executor=two_workers
        ).simulate_detailed(indexed, SeedSets(rumors=[0]), end_ids=(5,))
        assert aggregate.runs == 1
        assert len(records) == 1
        assert records[0].end_counts == (1, 0, 0)  # the chain end is infected

    def test_record_outcome_classifies_ends(self, chain):
        indexed = chain.to_indexed()
        outcome = DOAMModel().run(
            indexed, SeedSets(rumors=[0], protectors=[3]), max_hops=31
        )
        record = record_outcome(outcome, 31, (2, 4, 5))
        assert isinstance(record, ReplicaRecord)
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
            ParallelMonteCarloSimulator(
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
    def test_add_series_matches_add(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        via_add = SimulationAggregate(5)
        via_series = SimulationAggregate(5)
        for replica in range(6):
            outcome = model.run(
                indexed, seeds, rng=RngStream(11).replica(replica), max_hops=5
            )
            via_add.add(outcome)
            record = record_outcome(outcome, 5, ())
            via_series.add_series(
                record.infected_series,
                record.protected_series,
                record.final_infected,
                record.final_protected,
            )
        assert via_series.runs == via_add.runs
        assert via_series.infected_per_hop == via_add.infected_per_hop
        assert via_series.final_infected.variance == via_add.final_infected.variance

    def test_add_series_length_checked(self):
        aggregate = SimulationAggregate(4)
        with pytest.raises(ValueError):
            aggregate.add_series((1, 2), (0, 0), 2, 0)


class TestAggregateMerge:
    def test_merge_equals_combined(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        rng = RngStream(7)
        left = SimulationAggregate(5)
        right = SimulationAggregate(5)
        both = SimulationAggregate(5)
        for replica in range(8):
            outcome = model.run(indexed, seeds, rng=rng.replica(replica), max_hops=5)
            (left if replica < 4 else right).add(outcome)
            rng_copy = rng.replica(replica)
            both.add(model.run(indexed, seeds, rng=rng_copy, max_hops=5))
        merged = left.merge(right)
        assert merged.runs == both.runs
        assert merged.infected_per_hop == pytest.approx(both.infected_per_hop)
        assert merged.final_infected.variance == pytest.approx(
            both.final_infected.variance
        )

    def test_merge_horizon_mismatch(self):
        with pytest.raises(ValueError):
            SimulationAggregate(3).merge(SimulationAggregate(4))

"""Unit tests for the Monte-Carlo simulation harness."""

import pytest

from repro.diffusion.base import SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.graph.digraph import DiGraph
from repro.kernels.registry import available_backends
from repro.rng import RngStream


@pytest.fixture
def star():
    return DiGraph.from_edges([(0, i) for i in range(1, 8)])


class TestSimulator:
    def test_deterministic_model_runs_once(self, chain):
        simulator = MonteCarloSimulator(DOAMModel(), runs=500)
        aggregate = simulator.simulate(
            chain.to_indexed(), SeedSets(rumors=[0])
        )
        assert aggregate.runs == 1
        assert aggregate.final_infected.mean == 6

    def test_stochastic_model_needs_rng(self, star):
        simulator = MonteCarloSimulator(OPOAOModel(), runs=5)
        with pytest.raises(ValueError):
            simulator.simulate(star.to_indexed(), SeedSets(rumors=[0]))

    def test_replica_count_honoured(self, star):
        simulator = MonteCarloSimulator(OPOAOModel(), runs=17, max_hops=5)
        aggregate = simulator.simulate(
            star.to_indexed(), SeedSets(rumors=[0]), rng=RngStream(1)
        )
        assert aggregate.runs == 17
        assert aggregate.final_infected.count == 17

    def test_reproducible_given_stream(self, star):
        indexed = star.to_indexed()
        simulator = MonteCarloSimulator(OPOAOModel(), runs=10, max_hops=8)
        a = simulator.simulate(indexed, SeedSets(rumors=[0]), rng=RngStream(5))
        b = simulator.simulate(indexed, SeedSets(rumors=[0]), rng=RngStream(5))
        assert a.infected_per_hop == b.infected_per_hop

    def test_records_kept_in_replica_order(self, star):
        indexed = star.to_indexed()
        seeds = SeedSets(rumors=[0])
        model = OPOAOModel()
        simulator = MonteCarloSimulator(model, runs=4, max_hops=3)
        aggregate = simulator.simulate(indexed, seeds, rng=RngStream(2))
        finals = [
            model.run(indexed, seeds, rng=RngStream(2).replica(i), max_hops=3)
            .infected_count
            for i in range(4)
        ]
        assert [record.final_infected for record in aggregate.records] == finals

    @pytest.mark.parametrize("backend", available_backends())
    def test_batched_records_match_per_replica_records(self, chain, backend):
        # DOAM is deterministic, so the kernel race and the per-run model
        # must build the very same record, bridge-end counts included.
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0], protectors=[3])
        per_run = MonteCarloSimulator(DOAMModel(), max_hops=8).simulate(
            indexed, seeds, end_ids=(2, 4, 5)
        )
        batched = MonteCarloSimulator(
            DOAMModel(), max_hops=8, backend=backend
        ).simulate(indexed, seeds, end_ids=(2, 4, 5))
        assert batched.records == per_run.records
        assert per_run.records[0].end_counts == (1, 2, 0)

    def test_mean_between_min_max(self, star):
        simulator = MonteCarloSimulator(OPOAOModel(), runs=30, max_hops=4)
        aggregate = simulator.simulate(
            star.to_indexed(), SeedSets(rumors=[0]), rng=RngStream(3)
        )
        stats = aggregate.final_infected
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_series_padded_to_horizon(self, chain):
        simulator = MonteCarloSimulator(DOAMModel(), runs=1, max_hops=20)
        aggregate = simulator.simulate(chain.to_indexed(), SeedSets(rumors=[0]))
        series = aggregate.infected_per_hop
        assert len(series) == 21
        assert series[-1] == 6.0  # held flat after termination


class TestAggregate:
    def test_per_hop_means(self, chain):
        simulator = MonteCarloSimulator(DOAMModel(), runs=1, max_hops=6)
        result = simulator.simulate(chain.to_indexed(), SeedSets(rumors=[0]))
        assert result.infected_per_hop == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.0]

    def test_infected_stats_at_clamps(self, chain):
        simulator = MonteCarloSimulator(DOAMModel(), runs=1, max_hops=4)
        aggregate = simulator.simulate(chain.to_indexed(), SeedSets(rumors=[0]))
        assert aggregate.infected_stats_at(999).mean == aggregate.infected_per_hop[-1]

    def test_validation(self):
        with pytest.raises(Exception):
            MonteCarloSimulator(DOAMModel(), runs=0)

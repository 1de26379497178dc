"""The one replica engine: ``Replicas.race`` on either engine.

The per-run engine must return exactly what per-replica
``DiffusionModel.run`` calls return, the kernel engine the same batch on
every backend, and worlds are sampled once per ``Replicas``.
"""

import pytest

from repro.diffusion.base import SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import Replicas
from repro.graph.generators import erdos_renyi
from repro.kernels import worlds as kernel_worlds
from repro.kernels.registry import available_backends
from repro.rng import RngStream

SEEDS = SeedSets(rumors=[0, 1], protectors=[2])
MODELS = [
    CompetitiveICModel(probability=0.3),
    CompetitiveLTModel(),
    OPOAOModel(),
    DOAMModel(),
]


@pytest.fixture
def graph():
    return erdos_renyi(40, 0.1, RngStream(4)).to_indexed()


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.name)
def test_per_run_race_equals_model_runs(graph, model):
    outcome = Replicas(graph, model, [3, 0, 7], 8, 21).race(SEEDS)
    indices = [3, 0, 7] if model.stochastic else [3]
    assert outcome.batch == len(indices)
    for world, index in enumerate(indices):
        run = model.run(
            graph,
            SEEDS,
            rng=RngStream(21).replica(index) if model.stochastic else None,
            max_hops=8,
        )
        assert outcome.states_row(world) == run.states
        for hop in range(9):
            assert outcome.infected_at(world, hop) == run.trace.infected_at(hop)
            assert outcome.protected_at(world, hop) == run.trace.protected_at(hop)
        assert outcome.final_infected(world) == run.infected_count
        assert outcome.final_protected(world) == run.protected_count


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.name)
def test_kernel_race_equal_on_every_backend(graph, model):
    def race(backend):
        replicas = Replicas(graph, model, range(6), 8, 5, backend=backend, tag="t")
        outcome = replicas.race(SEEDS)
        return [outcome.states_row(world) for world in range(outcome.batch)], [
            [outcome.infected_at(world, hop) for hop in range(9)]
            for world in range(outcome.batch)
        ]

    reference = race("python")
    assert len(reference[0]) == (6 if model.stochastic else 1)
    if "numpy" in available_backends():
        assert race("numpy") == reference


@pytest.mark.parametrize("backend", [None, "python"])
def test_deterministic_model_has_one_replica(graph, backend):
    replicas = Replicas(graph, DOAMModel(), range(30), 8, 5, backend=backend)
    assert replicas.indices == [0]
    assert replicas.race(SEEDS).batch == 1


def test_worlds_are_sampled_once_across_races(graph, monkeypatch):
    calls = []
    sample = kernel_worlds.sample_worlds

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(kernel_worlds, "sample_worlds", counting)
    replicas = Replicas(
        graph, OPOAOModel(), range(4), 8, 5, backend="python", tag="t"
    )
    first = replicas.race(SEEDS)
    second = replicas.race(SeedSets(rumors=[0, 1], protectors=[2, 3]))
    again = replicas.race(SEEDS)
    assert len(calls) == 1
    assert second.batch == first.batch == 4
    assert [again.states_row(w) for w in range(4)] == [
        first.states_row(w) for w in range(4)
    ]


def test_tag_keys_the_worlds(graph):
    def finals(tag):
        outcome = Replicas(
            graph, OPOAOModel(), range(8), 8, 5, backend="python", tag=tag
        ).race(SEEDS)
        return [outcome.states_row(world) for world in range(outcome.batch)]

    assert finals("a") == finals("a")
    assert finals("a") != finals("b")

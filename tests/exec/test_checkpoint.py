"""Checkpoint/resume tests: interrupted runs finish bit-identical.

The contract (``docs/parallel.md``): every checkpointed loop — greedy/
CELF selection rounds, sketch-store doubling, Monte-Carlo replica
batches — is prefix-deterministic, so a run resumed from round ``k``
produces exactly the selections, arrays, and aggregates an uninterrupted
run produces.
"""

import json
from typing import NamedTuple, Tuple

import pytest

from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.greedy import GreedySelector
from repro.algorithms.ris_greedy import RISGreedySelector
from repro.diffusion import simulation
from repro.diffusion.base import CascadeSet, SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.errors import CheckpointError
from repro.exec import checkpoint as checkpoint_module
from repro.exec.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    as_store,
    run_key,
    run_replicas,
)
from repro.graph.generators import erdos_renyi
from repro.kernels.registry import available_backends
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream


class TestRunKey:
    def test_deterministic(self):
        assert run_key(a=1, b="x") == run_key(a=1, b="x")
        assert run_key(b="x", a=1) == run_key(a=1, b="x")  # sorted keys

    def test_sensitive_to_every_part(self):
        base = run_key(model="opoao", seed=3)
        assert run_key(model="opoao", seed=4) != base
        assert run_key(model="doam", seed=3) != base
        assert run_key(model="opoao", seed=3, extra=None) != base

    def test_non_json_values_fingerprint_via_repr(self):
        assert run_key(ids=(1, 2)) == run_key(ids=(1, 2))


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save("greedy", "k1", {"chosen_ids": [4, 7]}, rounds=2)
        entry = store.load("greedy", "k1")
        assert entry == {"key": "k1", "rounds": 2, "state": {"chosen_ids": [4, 7]}}

    def test_missing_file_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.ckpt").load("greedy", "k") is None

    def test_missing_kind_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save("mc", "k", {}, rounds=1)
        assert store.load("greedy", "k") is None

    def test_resume_false_never_loads(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).save("greedy", "k", {"chosen_ids": []}, rounds=0)
        assert CheckpointStore(path, resume=False).load("greedy", "k") is None

    def test_key_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).save("greedy", "old-key", {}, rounds=1)
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load("greedy", "new-key")

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load("greedy", "k")
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load("greedy", "k")

    def test_kinds_share_one_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path)
        store.save("greedy", "gk", {"chosen_ids": [1]}, rounds=1)
        store.save("mc", "mk", {"records": []}, rounds=0)
        assert store.load("greedy", "gk")["state"] == {"chosen_ids": [1]}
        assert store.load("mc", "mk")["rounds"] == 0
        document = json.loads(path.read_text())
        assert document["schema"] == CHECKPOINT_SCHEMA
        assert set(document["entries"]) == {"greedy", "mc"}

    def test_clear(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path)
        store.save("greedy", "k", {}, rounds=1)
        store.clear()
        assert not path.exists()
        store.clear()  # idempotent

    def test_as_store(self, tmp_path):
        assert as_store(None) is None
        existing = CheckpointStore(tmp_path / "a.ckpt", resume=False)
        assert as_store(existing) is existing
        from_path = as_store(tmp_path / "b.ckpt")
        assert isinstance(from_path, CheckpointStore)
        assert from_path.resume is True


def make_greedy(tmp_path=None, cls=CELFGreedySelector):
    return cls(
        runs=8,
        max_hops=8,
        rng=RngStream(3, name="ckpt-greedy"),
        backend="python",
        checkpoint=None if tmp_path is None else tmp_path / "run.ckpt",
    )


class TestGreedyResume:
    def test_interrupted_run_resumes_bit_identical(self, fig2_context, tmp_path):
        uninterrupted = make_greedy().select(fig2_context, budget=3)
        # "Interrupt" after round 2: a budgeted run that checkpoints.
        prefix = make_greedy(tmp_path).select(fig2_context, budget=2)
        assert prefix == uninterrupted[:2]
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = make_greedy(tmp_path).select(fig2_context, budget=3)
        assert resumed == uninterrupted
        assert registry.counter_values()["exec.resumed_rounds"] == 2

    def test_exhaustive_greedy_resumes_too(self, fig2_context, tmp_path):
        uninterrupted = make_greedy(cls=GreedySelector).select(
            fig2_context, budget=3
        )
        make_greedy(tmp_path, cls=GreedySelector).select(fig2_context, budget=2)
        resumed = make_greedy(tmp_path, cls=GreedySelector).select(
            fig2_context, budget=3
        )
        assert resumed == uninterrupted

    def test_longer_checkpoint_truncates_to_budget(self, fig2_context, tmp_path):
        full = make_greedy(tmp_path).select(fig2_context, budget=3)
        truncated = make_greedy(tmp_path).select(fig2_context, budget=2)
        assert truncated == full[:2]

    def test_different_config_is_rejected(self, fig2_context, tmp_path):
        make_greedy(tmp_path).select(fig2_context, budget=2)
        other = CELFGreedySelector(
            runs=8,
            max_hops=8,
            rng=RngStream(99, name="ckpt-greedy"),  # different seed
            backend="python",
            checkpoint=tmp_path / "run.ckpt",
        )
        with pytest.raises(CheckpointError):
            other.select(fig2_context, budget=2)

    def test_no_resume_store_starts_fresh(self, fig2_context, tmp_path):
        make_greedy(tmp_path).select(fig2_context, budget=2)
        fresh_store = CheckpointStore(tmp_path / "run.ckpt", resume=False)
        selector = make_greedy()
        selector.checkpoint = fresh_store
        registry = MetricsRegistry()
        with use_registry(registry):
            result = selector.select(fig2_context, budget=2)
        assert result == make_greedy().select(fig2_context, budget=2)
        assert "exec.resumed_rounds" not in registry.counter_values()


class TestRISResume:
    def make_selector(self, tmp_path=None):
        return RISGreedySelector(
            semantics="opoao",
            initial_worlds=8,
            max_worlds=32,
            rng=RngStream(5, name="ckpt-ris"),
            checkpoint=None if tmp_path is None else tmp_path / "run.ckpt",
        )

    def test_restored_store_is_bit_identical(self, fig2_context, tmp_path):
        first = self.make_selector(tmp_path)
        picks = first.select(fig2_context, budget=2)
        sampled = first.make_store(fig2_context).state_dict()
        assert sampled["worlds"] >= 8

        resumed = self.make_selector(tmp_path)
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed_picks = resumed.select(fig2_context, budget=2)
        assert resumed_picks == picks
        assert resumed.make_store(fig2_context).state_dict() == sampled
        assert registry.counter_values()["exec.resumed_rounds"] == (
            sampled["worlds"]
        )

    def test_matches_uncheckpointed_run(self, fig2_context, tmp_path):
        plain = self.make_selector().select(fig2_context, budget=2)
        checkpointed = self.make_selector(tmp_path).select(fig2_context, budget=2)
        assert checkpointed == plain

    def test_entry_keyed_without_draw_rule_refuses_to_resume(
        self, fig2_context, tmp_path
    ):
        """A store keyed before the draw rule joined the key never resumes.

        Its worlds came from another rule; restoring them and sampling
        the rest under the current one would mix the two.
        """
        selector = self.make_selector()
        selector.select(fig2_context, budget=2)
        state = selector.make_store(fig2_context).state_dict()
        legacy_key = run_key(
            kind="sketch",
            semantics="opoao",
            steps=selector.steps,
            seed=selector.rng.seed,
            nodes=fig2_context.indexed.node_count,
            edges=fig2_context.indexed.edge_count,
            rumors=sorted(fig2_context.rumor_seed_ids()),
            ends=sorted(fig2_context.bridge_end_ids()),
        )
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).save("sketch", legacy_key, state, rounds=8)
        with pytest.raises(CheckpointError):
            self.make_selector(tmp_path).select(fig2_context, budget=2)


@pytest.fixture
def small_batches(monkeypatch):
    """Save replica checkpoints every 4 replicas instead of 64."""
    monkeypatch.setattr(checkpoint_module, "REPLICA_BATCH", 4)


class Row(NamedTuple):
    """A replica record with a tuple field, like the simulators' records."""

    index: int
    series: Tuple[int, ...]


def rows_for(indices):
    return [Row(index, (index, index * index)) for index in indices]


@pytest.mark.usefixtures("small_batches")
class TestRunReplicas:
    """The shared replica loop, interrupted by a real mid-run failure."""

    def loop(self, run_range, checkpoint):
        return run_replicas(
            run_range, 10, checkpoint, "mc", lambda: "key", make=Row._make
        )

    def test_crash_mid_run_resumes_only_the_missing_replicas(self, tmp_path):
        path = tmp_path / "loop.ckpt"
        batches = []

        def crashes_on_third_batch(indices):
            batches.append(list(indices))
            if len(batches) == 3:
                raise RuntimeError("worker lost")
            return rows_for(indices)

        with pytest.raises(RuntimeError):
            self.loop(crashes_on_third_batch, path)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        entry = json.loads(path.read_text())["entries"]["mc"]
        assert entry["rounds"] == 8
        assert entry["state"]["records"][7] == [7, [7, 49]]  # tuples as lists

        ran = []

        def resumed_range(indices):
            ran.extend(indices)
            return rows_for(indices)

        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = self.loop(resumed_range, CheckpointStore(path))
        assert ran == [8, 9]
        assert resumed == self.loop(rows_for, None) == rows_for(range(10))
        assert registry.counter_values()["exec.resumed_rounds"] == 8


@pytest.mark.usefixtures("small_batches")
class TestMonteCarloResume:
    def simulator(self, executor, runs, tmp_path=None):
        return MonteCarloSimulator(
            OPOAOModel(),
            runs=runs,
            max_hops=5,
            executor=executor,
            checkpoint=None if tmp_path is None else tmp_path / "run.ckpt",
        )

    def test_interrupted_run_resumes_bit_identical(
        self, chain, tmp_path, two_workers
    ):
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0])

        def run(simulator):
            return simulator.simulate(
                indexed, seeds, rng=RngStream(11), end_ids=(4, 5)
            )

        full_aggregate = run(self.simulator(two_workers, 12))
        # "Interrupt" after 6 replicas, then resume out to 12.
        run(self.simulator(two_workers, 6, tmp_path))
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed_aggregate = run(self.simulator(two_workers, 12, tmp_path))
        assert resumed_aggregate.records == full_aggregate.records
        assert resumed_aggregate.infected_per_hop == full_aggregate.infected_per_hop
        assert (
            resumed_aggregate.final_infected.mean
            == full_aggregate.final_infected.mean
        )
        assert registry.counter_values()["exec.resumed_rounds"] == 6

    def test_longer_checkpoint_truncates(self, chain, tmp_path, two_workers):
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0])
        full = self.simulator(two_workers, 12, tmp_path).simulate(
            indexed, seeds, rng=RngStream(11)
        )
        short = self.simulator(two_workers, 6, tmp_path).simulate(
            indexed, seeds, rng=RngStream(11)
        )
        assert short.records == full.records[:6]

    def test_deterministic_model_writes_no_entry(self, chain, tmp_path):
        aggregate = MonteCarloSimulator(
            DOAMModel(), runs=6, checkpoint=tmp_path / "run.ckpt"
        ).simulate(chain.to_indexed(), SeedSets(rumors=[0]))
        assert aggregate.runs == 1
        assert not (tmp_path / "run.ckpt").exists()

    def test_different_seeds_rejected(self, chain, tmp_path, two_workers):
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0])
        self.simulator(two_workers, 6, tmp_path).simulate(
            indexed, seeds, rng=RngStream(11)
        )
        with pytest.raises(CheckpointError):
            self.simulator(two_workers, 6, tmp_path).simulate(
                indexed, seeds, rng=RngStream(12)
            )


@pytest.mark.usefixtures("small_batches")
class TestMonteCarloCascadeKeys:
    """The mc run key covers the cascade structure (regression).

    Before the K-cascade refactor the key fingerprinted a flat rumor/
    protector pair; a checkpoint written under one cascade split or
    priority rule must now refuse to seed a run with another, instead of
    silently resuming foreign replicas.
    """

    def simulator(self, executor, runs, tmp_path):
        return MonteCarloSimulator(
            OPOAOModel(),
            runs=runs,
            max_hops=5,
            executor=executor,
            checkpoint=tmp_path / "run.ckpt",
        )

    def test_priority_rule_changes_the_key(self, chain, tmp_path, two_workers):
        indexed = chain.to_indexed()
        cascades = [[0], [3], [5]]
        self.simulator(two_workers, 6, tmp_path).simulate(
            indexed, CascadeSet(cascades), rng=RngStream(11)
        )
        with pytest.raises(CheckpointError):
            self.simulator(two_workers, 6, tmp_path).simulate(
                indexed,
                CascadeSet(cascades, priority="rumor-first"),
                rng=RngStream(11),
            )

    def test_cascade_split_changes_the_key(self, chain, tmp_path, two_workers):
        # Same nodes fielded, different campaign structure: K=2 with
        # protectors {3, 5} is not K=3 with campaigns {3} and {5}.
        indexed = chain.to_indexed()
        self.simulator(two_workers, 6, tmp_path).simulate(
            indexed, SeedSets(rumors=[0], protectors=[3, 5]), rng=RngStream(11)
        )
        with pytest.raises(CheckpointError):
            self.simulator(two_workers, 6, tmp_path).simulate(
                indexed, CascadeSet([[0], [3], [5]]), rng=RngStream(11)
            )

    def test_stale_pre_refactor_checkpoint_rejected(
        self, chain, tmp_path, two_workers
    ):
        # A checkpoint whose mc entry was fingerprinted the old way
        # (flat rumors/protectors, no cascades/priority parts) must raise
        # rather than resume.
        indexed = chain.to_indexed()
        stale_key = run_key(
            kind="mc", model="opoao", seed=11, max_hops=5,
            nodes=indexed.node_count, edges=indexed.edge_count,
            rumors=[0], protectors=[3], ends=[],
        )
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save("mc", stale_key, {"batches": []}, rounds=0)
        with pytest.raises(CheckpointError):
            self.simulator(two_workers, 6, tmp_path).simulate(
                indexed,
                SeedSets(rumors=[0], protectors=[3]),
                rng=RngStream(11),
            )

    def test_k3_prefix_resume_is_bit_identical(self, chain, tmp_path, two_workers):
        indexed = chain.to_indexed()
        seeds = CascadeSet([[0], [3], [5]], priority="rumor-first")

        def run(simulator):
            return simulator.simulate(
                indexed, seeds, rng=RngStream(11), end_ids=(4, 5)
            )

        full_aggregate = run(
            MonteCarloSimulator(
                OPOAOModel(), runs=12, max_hops=5, executor=two_workers
            )
        )
        run(self.simulator(two_workers, 6, tmp_path))
        resumed_aggregate = run(self.simulator(two_workers, 12, tmp_path))
        assert resumed_aggregate.records == full_aggregate.records
        assert (
            resumed_aggregate.infected_per_hop
            == full_aggregate.infected_per_hop
        )


KERNEL_MODELS = [CompetitiveICModel(probability=0.3), CompetitiveLTModel(), OPOAOModel()]


@pytest.mark.usefixtures("small_batches")
class TestKernelMonteCarloResume:
    """The kernel engine on the shared replica loop: checkpointed like
    the per-replica engine, under a key that names the draw rule."""

    @pytest.fixture
    def graph(self):
        return erdos_renyi(30, 0.15, RngStream(8)).to_indexed()

    def run(self, graph, model, backend="python", checkpoint=None):
        return MonteCarloSimulator(
            model, runs=10, max_hops=6, backend=backend, checkpoint=checkpoint
        ).simulate(
            graph, SeedSets(rumors=[0, 1], protectors=[2]),
            rng=RngStream(11), end_ids=range(10, 20),
        ).records

    @pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.name)
    def test_failed_run_resumes_to_uninterrupted_records(
        self, graph, model, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.ckpt"
        uninterrupted = self.run(graph, model)
        batches = []
        chunk = simulation._simulate_chunk

        def fails_after_one_batch(state, indices):
            batches.append(list(indices))
            if len(batches) == 2:
                raise RuntimeError("worker lost")
            return chunk(state, indices)

        monkeypatch.setattr(simulation, "_simulate_chunk", fails_after_one_batch)
        with pytest.raises(RuntimeError):
            self.run(graph, model, checkpoint=path)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]
        monkeypatch.setattr(simulation, "_simulate_chunk", chunk)
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = self.run(graph, model, checkpoint=path)
        assert resumed == uninterrupted
        assert registry.counter_values()["exec.resumed_rounds"] == 4

    def test_entry_written_on_python_resumes_on_numpy(self, graph, tmp_path):
        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        path = tmp_path / "run.ckpt"
        uninterrupted = self.run(graph, OPOAOModel(), backend="numpy")
        self.run(graph, OPOAOModel(), backend="python", checkpoint=path)
        resumed = self.run(graph, OPOAOModel(), backend="numpy", checkpoint=path)
        assert resumed == uninterrupted

    def test_per_replica_entry_never_seeds_a_kernel_run(self, graph, tmp_path):
        path = tmp_path / "run.ckpt"
        self.run(graph, OPOAOModel(), backend=None, checkpoint=path)
        with pytest.raises(CheckpointError):
            self.run(graph, OPOAOModel(), checkpoint=path)


class TestCLICheckpointFlags:
    def test_select_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.ckpt"
        argv = [
            "select",
            "--dataset", "enron-small",
            "--scale", "0.02",
            "--algorithm", "greedy",
            "--budget", "2",
            "--seed", "13",
            "--checkpoint", str(path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert path.exists()
        document = json.loads(path.read_text())
        assert document["schema"] == CHECKPOINT_SCHEMA
        assert document["entries"]["greedy"]["rounds"] == 2
        # Resuming re-selects the same protectors from the saved rounds.
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first

    def test_serial_simulate_checkpoints_replica_batches(self, tmp_path, capsys):
        """Without --workers, Monte-Carlo replica batches checkpoint too."""
        from repro.cli import main

        path = tmp_path / "cli.ckpt"
        argv = [
            "simulate",
            "--dataset", "enron-small",
            "--scale", "0.05",
            "--seed", "13",
            "--algorithm", "maxdegree",
            "--model", "opoao",
            "--runs", "8",
            "--hops", "8",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--checkpoint", str(path)]) == 0
        assert capsys.readouterr().out == plain
        document = json.loads(path.read_text())
        assert document["entries"]["mc"]["rounds"] == 8
        registry = MetricsRegistry()
        with use_registry(registry):
            assert main(argv + ["--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == plain
        assert registry.counter_values()["exec.resumed_rounds"] == 8

"""Parallel Monte-Carlo simulation across processes.

The OPOAO experiments average hundreds of independent replicas; replicas
never communicate, so they parallelise perfectly. This module fans the
replica loop of :class:`~repro.diffusion.simulation.MonteCarloSimulator`
out over the :mod:`repro.exec` execution layer while preserving
**bit-identical results**: replica ``i`` always runs on
``rng.replica(i)`` no matter which worker executes it, workers ship each
replica home as a compact :class:`ReplicaRecord`, and the parent folds
the records into the aggregate **in replica order** — so the resulting
:class:`~repro.diffusion.simulation.SimulationAggregate` is exactly the
one a serial run produces (same means, same Welford variance, tested in
``tests/diffusion/test_parallel.py``).

Deterministic models short-circuit to a single in-process run, exactly as
the serial simulator does.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.diffusion.base import (
    DEFAULT_MAX_HOPS,
    INFECTED,
    PROTECTED,
    CascadeSet,
    DiffusionModel,
)
from repro.diffusion.simulation import MonteCarloSimulator, SimulationAggregate
from repro.exec.pool import ParallelExecutor
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["ParallelMonteCarloSimulator", "ReplicaRecord"]


class ReplicaRecord(NamedTuple):
    """One replica's outcome, reduced to the integers aggregation needs.

    Workers ship these instead of full outcome objects: the pickled
    payload stays small and the parent can rebuild serial-identical
    aggregates and bridge-end statistics without re-touching the states.
    """

    #: cumulative infected count at hop 0..max_hops (clamped like the trace).
    infected_series: Tuple[int, ...]
    #: cumulative protected count at hop 0..max_hops.
    protected_series: Tuple[int, ...]
    final_infected: int
    final_protected: int
    #: (infected, protected, untouched) counts over the requested bridge ends.
    end_counts: Tuple[int, int, int]


def record_outcome(outcome, max_hops: int, end_ids: Sequence[int]) -> ReplicaRecord:
    """Reduce one diffusion outcome to its :class:`ReplicaRecord`."""
    trace = outcome.trace
    infected = protected = untouched = 0
    for end in end_ids:
        state = outcome.states[end]
        if state == INFECTED:
            infected += 1
        elif state >= PROTECTED:  # any positive campaign
            protected += 1
        else:
            untouched += 1
    return ReplicaRecord(
        tuple(trace.infected_at(hop) for hop in range(max_hops + 1)),
        tuple(trace.protected_at(hop) for hop in range(max_hops + 1)),
        outcome.infected_count,
        outcome.protected_count,
        (infected, protected, untouched),
    )


def _records_to_state(records: List[ReplicaRecord]) -> dict:
    """JSON-serialisable checkpoint state for a replica-record prefix."""
    return {
        "records": [
            [
                list(record.infected_series),
                list(record.protected_series),
                record.final_infected,
                record.final_protected,
                list(record.end_counts),
            ]
            for record in records
        ]
    }


def _records_from_state(state: dict) -> List[ReplicaRecord]:
    return [
        ReplicaRecord(
            tuple(int(value) for value in row[0]),
            tuple(int(value) for value in row[1]),
            int(row[2]),
            int(row[3]),
            tuple(int(value) for value in row[4]),
        )
        for row in state["records"]
    ]


def _simulate_worker_setup(graph, payload):
    """Pool worker set-up: the shared run state, keyed off the shipped seed."""
    return {
        "model": payload["model"],
        "graph": graph,
        "seeds": payload["seeds"],
        "base": RngStream(payload["seed"], name="parallel-worker"),
        "max_hops": payload["max_hops"],
        "end_ids": payload["end_ids"],
    }


def _simulate_worker_chunk(state, replica_indices) -> List[ReplicaRecord]:
    """Pool worker task: run a chunk of replicas on their index streams."""
    model: DiffusionModel = state["model"]
    records = []
    for replica_index in replica_indices:
        outcome = model.run(
            state["graph"],
            state["seeds"],
            rng=state["base"].replica(replica_index),
            max_hops=state["max_hops"],
        )
        records.append(record_outcome(outcome, state["max_hops"], state["end_ids"]))
    registry = metrics()
    if registry.enabled:
        registry.counter("sim.worlds").add(len(replica_indices))
    return records


class ParallelMonteCarloSimulator:
    """Process-parallel replica runner with serial-identical aggregates.

    Args:
        model: any diffusion model.
        runs: replica count (stochastic models).
        max_hops: horizon per run.
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; when set, completed replica batches are
            saved and a matching checkpoint resumes after its prefix —
            replica ``i`` always runs on ``rng.replica(i)``, so the
            resumed aggregate is bit-identical to an uninterrupted run.
        checkpoint_every: replicas per checkpointed batch.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` whose
            warm pool every checkpoint batch of every :meth:`simulate`
            call reuses. ``None`` runs serially, through an inline
            executor.

    Note:
        The callback-per-outcome hook of the serial simulator is not
        offered here (outcomes stay in the workers); callers needing
        per-replica data use :meth:`simulate_detailed`, which returns
        the workers' :class:`ReplicaRecord` list in replica order.
    """

    def __init__(
        self,
        model: DiffusionModel,
        runs: int = 200,
        max_hops: int = DEFAULT_MAX_HOPS,
        checkpoint=None,
        checkpoint_every: int = 64,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.model = model
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.checkpoint = checkpoint
        self.checkpoint_every = int(
            check_positive(checkpoint_every, "checkpoint_every")
        )
        self._executor = executor if executor is not None else ParallelExecutor()

    def simulate(
        self,
        graph: IndexedDiGraph,
        seeds: CascadeSet,
        rng: Optional[RngStream] = None,
    ) -> SimulationAggregate:
        """Run all replicas across the pool and aggregate in replica order."""
        aggregate, _records = self.simulate_detailed(graph, seeds, rng=rng)
        return aggregate

    def simulate_detailed(
        self,
        graph: IndexedDiGraph,
        seeds: CascadeSet,
        rng: Optional[RngStream] = None,
        end_ids: Sequence[int] = (),
    ) -> Tuple[SimulationAggregate, List[ReplicaRecord]]:
        """Like :meth:`simulate`, also returning every replica's record.

        ``end_ids`` names the bridge ends whose final states each record
        classifies (``end_counts``); evaluation uses this to rebuild
        serial-identical bridge statistics without shipping full state
        arrays home.
        """
        end_ids = tuple(end_ids)
        if not self.model.stochastic:
            serial = MonteCarloSimulator(self.model, runs=1, max_hops=self.max_hops)
            records: List[ReplicaRecord] = []

            def collect(outcome) -> None:
                records.append(record_outcome(outcome, self.max_hops, end_ids))

            aggregate = serial.simulate(graph, seeds, rng=rng, on_outcome=collect)
            return aggregate, records
        if rng is None:
            raise ValueError(f"{self.model.name} is stochastic and needs an RngStream")

        registry = metrics()
        payload = {
            "model": self.model,
            "seeds": seeds,
            "seed": rng.seed,
            "max_hops": self.max_hops,
            "end_ids": end_ids,
        }
        from repro.exec.checkpoint import as_store

        ckpt = as_store(self.checkpoint)
        records: List[ReplicaRecord] = []
        key = ""
        if ckpt is not None:
            key = self._checkpoint_key(graph, seeds, rng, end_ids)
            entry = ckpt.load("mc", key)
            if entry is not None:
                # ``runs`` is outside the key on purpose: replica i is a
                # pure function of rng.replica(i), so a shorter run's
                # prefix seeds a longer one (and a longer one truncates).
                records = _records_from_state(entry["state"])[: self.runs]
                if records:
                    registry.inc("exec.resumed_rounds", len(records))
        with registry.timer("time.simulate.parallel"):
            start = len(records)
            while start < self.runs:
                stop = (
                    self.runs
                    if ckpt is None
                    else min(self.runs, start + self.checkpoint_every)
                )
                indices = list(range(start, stop))
                records.extend(self._executor.map_items(
                    _simulate_worker_setup,
                    _simulate_worker_chunk,
                    payload,
                    indices,
                    graph=graph,
                ))
                start = stop
                if ckpt is not None:
                    ckpt.save(
                        "mc", key, _records_to_state(records), rounds=len(records)
                    )
        aggregate = SimulationAggregate(self.max_hops)
        for record in records:  # replica order -> bit-identical to serial
            aggregate.add_series(
                record.infected_series,
                record.protected_series,
                record.final_infected,
                record.final_protected,
            )
        return aggregate, records

    def _checkpoint_key(self, graph, seeds, rng, end_ids) -> str:
        """Run-key fingerprint for Monte-Carlo checkpoints (sans runs).

        Every cascade seed set and the priority order are part of the key:
        a checkpoint written for a different cascade configuration (or by
        the pre-K-cascade engine, which keyed only rumors/protectors) must
        raise rather than silently seed a foreign resume.
        """
        from repro.exec.checkpoint import run_key

        return run_key(
            kind="mc",
            model=self.model.name,
            seed=rng.seed,
            max_hops=self.max_hops,
            nodes=graph.node_count,
            edges=graph.edge_count,
            cascades=[sorted(cascade) for cascade in seeds.cascades],
            priority=list(seeds.priority),
            ends=list(end_ids),
        )

    def __repr__(self) -> str:
        return (
            f"ParallelMonteCarloSimulator(model={self.model.name}, "
            f"runs={self.runs})"
        )

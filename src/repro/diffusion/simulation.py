"""Replica racing and the Monte-Carlo simulation harness.

The paper's OPOAO figures report "the average results obtained by repeated
Monte Carlo simulation" (Section VI.B.2), and Algorithm 1's σ(A) is an
average over paired realisations (Theorem 1). :class:`Replicas` is the
library's one replica engine, behind both: replica ``i`` runs the model
on ``RngStream(seed).replica(i)``, or with a kernel ``backend`` races
the world :func:`~repro.kernels.worlds.sample_worlds` draws for ``i``
(the same world in any batch, on any backend). Either way one
:meth:`Replicas.race` returns a
:class:`~repro.kernels.base.BatchOutcome`, so no consumer branches on
the engine.

:class:`MonteCarloSimulator` races replicas on one replica loop
(:func:`~repro.exec.checkpoint.run_replicas`) and reduces each to a
compact :class:`ReplicaRecord`, whichever process runs it; the
aggregate folds the records **in replica order**. So a run over a
:class:`~repro.exec.pool.ParallelExecutor`, a serial run, and a run
resumed from a checkpoint are bit-identical (same means, same Welford
variance; tested in ``tests/diffusion/test_parallel.py``).
Deterministic models (DOAM) race a single replica.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.diffusion.base import (
    DEFAULT_MAX_HOPS,
    INFECTED,
    PROTECTED,
    CascadeSet,
    DiffusionModel,
    SeedSets,
)
from repro.exec.checkpoint import run_key, run_replicas
from repro.exec.pool import ParallelExecutor
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import PICK_RULE_VERSION, RngStream, derive_seed
from repro.utils.stats import RunningStats
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.kernels.base import BatchOutcome

__all__ = [
    "MonteCarloSimulator",
    "ReplicaRecord",
    "Replicas",
    "SimulationAggregate",
]


class Replicas:
    """The replicas ``indices`` of one model on one graph, raced as a batch.

    Args:
        graph: indexed graph.
        model: any :class:`~repro.diffusion.base.DiffusionModel`; a
            deterministic one has one replica, the first index.
        indices: replica indices, in order.
        max_hops: horizon per replica.
        seed: base seed. ``None`` is only for a deterministic model.
        backend: ``None`` runs ``model.run`` per replica on
            ``RngStream(seed).replica(i)``; a kernel backend name
            (``"python"``/``"numpy"``/``"auto"``) races the worlds
            :func:`~repro.kernels.worlds.sample_worlds` draws under
            ``derive_seed(seed, tag)``, sampled on the first
            :meth:`race` and replayed by every later one. The name and
            the model's kernel spec resolve here, so a missing backend
            or an unsupported model raises in the caller.
        tag: the label that keys the kernel worlds; each caller fixes
            its own, so it keeps racing the worlds it always has.
    """

    def __init__(
        self,
        graph: IndexedDiGraph,
        model: DiffusionModel,
        indices: Iterable[int],
        max_hops: int,
        seed: Optional[int],
        backend: Optional[str] = None,
        tag: str = "worlds",
    ) -> None:
        self.graph = graph
        self.model = model
        self.indices = list(indices) if model.stochastic else list(indices)[:1]
        self.max_hops = max_hops
        self.seed = seed
        self.tag = tag
        self.backend = None
        self._worlds = None
        if backend is not None:
            from repro.kernels.registry import resolve_backend
            from repro.kernels.spec import spec_for_model

            self.backend = resolve_backend(backend)
            self._spec = spec_for_model(model)

    def race(self, seeds: CascadeSet) -> "BatchOutcome":
        """Race every replica under one seed configuration."""
        if self.backend is None:
            return self._run_each(seeds)
        if self._worlds is None:
            from repro.kernels.worlds import sample_worlds

            self._worlds = sample_worlds(
                self.graph, self._spec, self.indices, self.max_hops,
                derive_seed(self.seed or 0, self.tag),
            )
        return self.backend.run_worlds(
            self.graph, self._spec, self._worlds, seeds, self.max_hops
        )

    def _run_each(self, seeds: CascadeSet) -> "BatchOutcome":
        from repro.kernels.base import BatchOutcome

        base = RngStream(self.seed) if self.model.stochastic else None
        rows, series = [], []
        for index in self.indices:
            outcome = self.model.run(
                self.graph,
                seeds,
                rng=None if base is None else base.replica(index),
                max_hops=self.max_hops,
            )
            rows.append(outcome.states)
            series.append(outcome.trace.series)
        return BatchOutcome.from_runs(
            self.model.name, self.graph.node_count, rows, series
        )


class ReplicaRecord(NamedTuple):
    """One replica's outcome, reduced to the integers aggregation needs.

    Pool workers ship these instead of full outcome objects: the pickled
    payload stays small and the parent rebuilds serial-identical
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


def _end_counts(states, end_ids: Sequence[int]) -> Tuple[int, int, int]:
    """(infected, protected, untouched) final states over ``end_ids``."""
    infected = protected = untouched = 0
    for end in end_ids:
        state = states[end]
        if state == INFECTED:
            infected += 1
        elif state >= PROTECTED:  # any positive campaign
            protected += 1
        else:
            untouched += 1
    return infected, protected, untouched


class SimulationAggregate:
    """Replica-averaged diffusion statistics.

    Attributes:
        hops: the horizon all series are padded to.
        records: every folded :class:`ReplicaRecord`, in replica order.
        runs: number of replicas aggregated.
        infected_per_hop: mean cumulative infected nodes at each hop
            (length ``hops + 1``; hop 0 = seeds).
        protected_per_hop: mean cumulative protected nodes at each hop.
        final_infected: :class:`RunningStats` of the final infected count.
        final_protected: :class:`RunningStats` of the final protected count.
    """

    __slots__ = (
        "hops",
        "records",
        "_infected_stats",
        "_protected_stats",
        "final_infected",
        "final_protected",
    )

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.records: List[ReplicaRecord] = []
        self._infected_stats = [RunningStats() for _ in range(hops + 1)]
        self._protected_stats = [RunningStats() for _ in range(hops + 1)]
        self.final_infected = RunningStats()
        self.final_protected = RunningStats()

    @property
    def runs(self) -> int:
        return len(self.records)

    def add(self, record: ReplicaRecord) -> None:
        """Fold one replica's record in (call in replica order)."""
        if len(record.infected_series) != self.hops + 1:
            raise ValueError(
                f"series must have {self.hops + 1} entries, "
                f"got {len(record.infected_series)}"
            )
        self.records.append(record)
        for hop in range(self.hops + 1):
            self._infected_stats[hop].add(record.infected_series[hop])
            self._protected_stats[hop].add(record.protected_series[hop])
        self.final_infected.add(record.final_infected)
        self.final_protected.add(record.final_protected)

    @property
    def infected_per_hop(self) -> List[float]:
        """Mean cumulative infected count per hop."""
        return [stats.mean for stats in self._infected_stats]

    @property
    def protected_per_hop(self) -> List[float]:
        """Mean cumulative protected count per hop."""
        return [stats.mean for stats in self._protected_stats]

    def infected_stats_at(self, hop: int) -> RunningStats:
        """Full stats (mean/sd/min/max) of the infected count at a hop."""
        return self._infected_stats[min(hop, self.hops)]

    def __repr__(self) -> str:
        return (
            f"SimulationAggregate(runs={self.runs}, hops={self.hops}, "
            f"final_infected={self.final_infected.mean:.1f})"
        )


def _simulate_setup(graph, payload):
    """Replica-run state shared by every chunk (pool worker or in-process)."""
    return dict(payload, graph=graph)


def _simulate_chunk(state, replica_indices) -> List[ReplicaRecord]:
    """Race a chunk of replicas and reduce each to its record."""
    max_hops, end_ids = state["max_hops"], state["end_ids"]
    outcome = Replicas(
        state["graph"], state["model"], replica_indices, max_hops,
        state["seed"], backend=state["backend"], tag="mc-worlds",
    ).race(state["seeds"])
    hops = range(max_hops + 1)
    records = [
        ReplicaRecord(
            tuple(outcome.infected_at(world, hop) for hop in hops),
            tuple(outcome.protected_at(world, hop) for hop in hops),
            outcome.final_infected(world),
            outcome.final_protected(world),
            _end_counts(outcome.states[world], end_ids),
        )
        for world in range(outcome.batch)
    ]
    registry = metrics()
    if registry.enabled:
        registry.counter("sim.worlds").add(len(records))
    return records


class MonteCarloSimulator:
    """Run a model repeatedly and aggregate its traces.

    Args:
        model: any :class:`~repro.diffusion.base.DiffusionModel`.
        runs: replica count for stochastic models; deterministic models
            always run once.
        max_hops: horizon for every run (paper default: 31).
        backend: the :class:`Replicas` engine: ``None`` runs the model
            per replica, a kernel backend name races each chunk of
            replicas' worlds in one batched call.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` whose
            warm pool runs the replicas (either engine); ``None`` runs
            them serially in-process.
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; a stochastic model's replica batches are
            saved under kind ``"mc"`` and a matching saved prefix
            resumes bit-identically (either engine). Ignored for a
            deterministic model.
    """

    def __init__(
        self,
        model: DiffusionModel,
        runs: int = 200,
        max_hops: int = DEFAULT_MAX_HOPS,
        backend: Optional[str] = None,
        executor: Optional[ParallelExecutor] = None,
        checkpoint=None,
    ) -> None:
        self.model = model
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.backend = backend
        self.checkpoint = checkpoint
        self._executor = executor

    def simulate(
        self,
        graph: IndexedDiGraph,
        seeds: SeedSets,
        rng: Optional[RngStream] = None,
        end_ids: Sequence[int] = (),
    ) -> SimulationAggregate:
        """Run the configured number of replicas and aggregate.

        Args:
            graph: indexed graph.
            seeds: seed sets (node ids).
            rng: base stream, required for stochastic models; replica
                ``i`` is a pure function of its seed and ``i`` (see
                :class:`Replicas`), whatever the iteration order.
            end_ids: bridge ends whose final states every record
                classifies (``ReplicaRecord.end_counts``).

        Returns:
            the aggregate, with every replica's record in
            ``aggregate.records`` (replica order).
        """
        end_ids = tuple(end_ids)
        stochastic = self.model.stochastic
        if stochastic and rng is None:
            raise ValueError(f"{self.model.name} is stochastic and needs an RngStream")
        payload = {
            "model": self.model,
            "seeds": seeds,
            "seed": rng.seed if stochastic else None,
            "backend": None,
            "max_hops": self.max_hops,
            "end_ids": end_ids,
        }
        if self.backend is not None:
            from repro.kernels.registry import resolve_backend

            payload["backend"] = resolve_backend(self.backend).name
        if self._executor is None:
            run_range = partial(_simulate_chunk, _simulate_setup(graph, payload))
        else:
            run_range = partial(
                self._executor.map_items,
                _simulate_setup,
                _simulate_chunk,
                payload,
                graph=graph,
            )
        with metrics().timer("time.simulate"):
            records = run_replicas(
                run_range,
                self.runs if stochastic else 1,
                self.checkpoint if stochastic else None,
                "mc",
                lambda: self._checkpoint_key(graph, seeds, rng, end_ids),
                make=ReplicaRecord._make,
            )
        aggregate = SimulationAggregate(self.max_hops)
        for record in records:
            aggregate.add(record)
        return aggregate

    def _checkpoint_key(self, graph, seeds, rng, end_ids) -> str:
        """Run-key fingerprint for Monte-Carlo checkpoints (sans runs).

        Every cascade seed set and the priority order are part of the key:
        a checkpoint written for a different cascade configuration (or by
        the pre-K-cascade engine, which keyed only rumors/protectors) must
        raise rather than silently seed a foreign resume. The kernel
        engine adds its draw rule's version (``draws``) but no backend
        name: every backend races the same worlds.
        """
        fields = {} if self.backend is None else {"draws": PICK_RULE_VERSION}
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
            **fields,
        )

    def __repr__(self) -> str:
        backend = f", backend={self.backend!r}" if self.backend else ""
        return (
            f"MonteCarloSimulator(model={self.model.name}, runs={self.runs}, "
            f"max_hops={self.max_hops}{backend})"
        )

"""Replica fan-out for the gossip engine.

Gossip replicas never communicate, so they parallelise exactly like the
diffusion Monte-Carlo loop (:mod:`repro.diffusion.simulation`): replica
``i`` always runs on ``rng.replica(i)`` no matter which worker executes
it, workers ship compact :class:`GossipReplicaRecord` rows home, and the
parent folds them into the :class:`GossipAggregate` in replica order —
serial (no executor: in-process) and parallel runs are bit-identical.

Completed replica batches checkpoint through
:func:`repro.exec.checkpoint.run_replicas` under kind ``"gossip"``;
``runs`` is kept out of the run-key on purpose so a shorter run's prefix
seeds a longer one. Workers report ``gossip.*`` counters, a
``gossip.final_infected`` histogram, and a ``gossip.residual_infected``
gauge (max over replicas) through the pool's snapshot-merge protocol.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exec.checkpoint import run_key, run_replicas
from repro.exec.pool import ParallelExecutor
from repro.gossip.config import GossipConfig
from repro.gossip.sim import MESSAGE_KINDS, GossipEngine, GossipOutcome
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "GossipAggregate",
    "GossipMonteCarlo",
    "GossipReplicaRecord",
    "record_gossip_outcome",
]


class GossipReplicaRecord(NamedTuple):
    """One gossip replica, reduced to the integers aggregation needs."""

    final_infected: int
    final_protected: int
    #: message counts aligned with :data:`repro.gossip.sim.MESSAGE_KINDS`.
    messages: Tuple[int, ...]
    events: int
    rounds: int
    #: cumulative infected count at the end of round 0..max_rounds.
    infected_series: Tuple[int, ...]

    @property
    def messages_total(self) -> int:
        return sum(self.messages)


def record_gossip_outcome(outcome: GossipOutcome) -> GossipReplicaRecord:
    """Reduce one engine outcome to its :class:`GossipReplicaRecord`."""
    return GossipReplicaRecord(
        outcome.infected_count,
        outcome.protected_count,
        tuple(outcome.messages[kind] for kind in MESSAGE_KINDS),
        outcome.events,
        outcome.rounds,
        tuple(outcome.infected_series),
    )


class GossipAggregate:
    """Replica-order fold of :class:`GossipReplicaRecord` rows.

    Attributes:
        replicas: replicas folded so far.
        messages: summed message counts by kind.
        events / rounds: summed event and node-round counts.
        max_infected: worst replica's final infected count (the
            residual-infected gauge).
    """

    def __init__(self, max_rounds: int) -> None:
        self.max_rounds = int(max_rounds)
        self.replicas = 0
        self._infected_sum = 0
        self._protected_sum = 0
        self.messages: Dict[str, int] = {kind: 0 for kind in MESSAGE_KINDS}
        self.events = 0
        self.rounds = 0
        self.max_infected = 0
        self._series_sum = [0] * (self.max_rounds + 1)

    def add_record(self, record: GossipReplicaRecord) -> None:
        """Fold one replica (call in replica order for bit-identity)."""
        self.replicas += 1
        self._infected_sum += record.final_infected
        self._protected_sum += record.final_protected
        for kind, count in zip(MESSAGE_KINDS, record.messages):
            self.messages[kind] += count
        self.events += record.events
        self.rounds += record.rounds
        if record.final_infected > self.max_infected:
            self.max_infected = record.final_infected
        for index, value in enumerate(record.infected_series):
            if index <= self.max_rounds:
                self._series_sum[index] += value

    @property
    def messages_total(self) -> int:
        return sum(self.messages.values())

    @property
    def mean_infected(self) -> float:
        return self._infected_sum / self.replicas if self.replicas else 0.0

    @property
    def mean_protected(self) -> float:
        return self._protected_sum / self.replicas if self.replicas else 0.0

    @property
    def mean_messages(self) -> float:
        return self.messages_total / self.replicas if self.replicas else 0.0

    def mean_series(self) -> List[float]:
        """Mean cumulative infected count per round boundary."""
        if not self.replicas:
            return [0.0] * (self.max_rounds + 1)
        return [value / self.replicas for value in self._series_sum]

    def summary(self) -> Dict[str, object]:
        """Plain-dict report (CLI/benchmark JSON output)."""
        return {
            "replicas": self.replicas,
            "mean_infected": self.mean_infected,
            "mean_protected": self.mean_protected,
            "max_infected": self.max_infected,
            "messages_total": self.messages_total,
            "mean_messages": self.mean_messages,
            "messages": dict(self.messages),
            "events": self.events,
            "rounds": self.rounds,
            "infected_series": self.mean_series(),
        }

    def __repr__(self) -> str:
        return (
            f"GossipAggregate(replicas={self.replicas}, "
            f"mean_infected={self.mean_infected:.2f}, "
            f"messages={self.messages_total})"
        )


def _gossip_worker_setup(graph, payload):
    """Pool worker set-up: shared replica-run state (uncounted)."""
    return {
        "graph": graph,
        "config": GossipConfig.from_dict(payload["config"]),
        "rumors": payload["rumors"],
        "protectors": payload["protectors"],
        "base": RngStream(payload["seed"], name="gossip-worker"),
    }


def _gossip_worker_chunk(state, replica_indices) -> List[GossipReplicaRecord]:
    """Pool worker task: run a chunk of replicas on their index streams."""
    records = []
    for replica_index in replica_indices:
        engine = GossipEngine(
            state["graph"],
            state["config"],
            state["rumors"],
            state["protectors"],
            rng=state["base"].replica(replica_index),
        )
        engine.run()
        records.append(record_gossip_outcome(engine.outcome()))
    registry = metrics()
    if registry.enabled:
        registry.counter("gossip.replicas").add(len(records))
        registry.counter("gossip.events").add(sum(r.events for r in records))
        registry.counter("gossip.rounds").add(sum(r.rounds for r in records))
        registry.counter("gossip.messages").add(
            sum(r.messages_total for r in records)
        )
        for position, kind in enumerate(MESSAGE_KINDS):
            total = sum(r.messages[position] for r in records)
            if total:
                registry.counter(f"gossip.messages.{kind}").add(total)
        for record in records:
            registry.observe("gossip.final_infected", record.final_infected)
        registry.gauge("gossip.residual_infected").merge(
            max(r.final_infected for r in records)
        )
    return records


class GossipMonteCarlo:
    """Replica fan-out with serial-identical aggregates.

    Args:
        config: the gossip protocol instance.
        runs: replica count.
        checkpoint: a path or
            :class:`~repro.exec.checkpoint.CheckpointStore`; completed
            replica batches are saved under kind ``"gossip"`` and a
            matching checkpoint resumes after its prefix bit-identically.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` whose
            warm pool every batch of every :meth:`run` call (e.g. a
            blocking scenario's strategy panels) reuses. ``None`` runs
            serially, in-process.
    """

    def __init__(
        self,
        config: GossipConfig,
        runs: int = 100,
        checkpoint=None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.config = config
        self.runs = int(check_positive(runs, "runs"))
        self.checkpoint = checkpoint
        self._executor = executor

    def run(
        self,
        graph: IndexedDiGraph,
        rumors: Sequence[int],
        protectors: Sequence[int] = (),
        rng: Optional[RngStream] = None,
    ) -> GossipAggregate:
        """Run all replicas and fold them in replica order."""
        aggregate, _records = self.run_detailed(graph, rumors, protectors, rng=rng)
        return aggregate

    def run_detailed(
        self,
        graph: IndexedDiGraph,
        rumors: Sequence[int],
        protectors: Sequence[int] = (),
        rng: Optional[RngStream] = None,
    ) -> Tuple[GossipAggregate, List[GossipReplicaRecord]]:
        """Like :meth:`run`, also returning every replica's record."""
        if rng is None:
            raise ValueError("gossip replicas are stochastic and need an RngStream")
        rumors = tuple(int(node) for node in rumors)
        protectors = tuple(int(node) for node in protectors)
        payload = {
            "config": self.config.to_dict(),
            "rumors": rumors,
            "protectors": protectors,
            "seed": rng.seed,
        }
        if self._executor is None:
            run_range = partial(
                _gossip_worker_chunk, _gossip_worker_setup(graph, payload)
            )
        else:
            run_range = partial(
                self._executor.map_items,
                _gossip_worker_setup,
                _gossip_worker_chunk,
                payload,
                graph=graph,
            )
        with metrics().timer("time.gossip.replicas"):
            records = run_replicas(
                run_range,
                self.runs,
                self.checkpoint,
                "gossip",
                lambda: self._checkpoint_key(graph, rumors, protectors, rng),
                make=GossipReplicaRecord._make,
            )
        aggregate = GossipAggregate(self.config.max_rounds)
        for record in records:  # replica order -> bit-identical to serial
            aggregate.add_record(record)
        return aggregate, records

    def _checkpoint_key(self, graph, rumors, protectors, rng) -> str:
        """Run-key fingerprint for gossip checkpoints (sans runs)."""
        return run_key(
            kind="gossip",
            config=self.config.to_dict(),
            seed=rng.seed,
            nodes=graph.node_count,
            edges=graph.edge_count,
            rumors=sorted(rumors),
            protectors=sorted(protectors),
        )

    def __repr__(self) -> str:
        return f"GossipMonteCarlo({self.config.protocol}, runs={self.runs})"

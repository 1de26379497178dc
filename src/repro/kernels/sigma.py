"""Batched σ(A) estimation on top of the kernel backends.

Drop-in peer of :class:`repro.algorithms.greedy.SigmaEstimator` with the
same coupled common-random-numbers semantics, but the coupling is a
pre-sampled :class:`~repro.kernels.worlds.WorldBatch` instead of replica
RNG streams: the worlds are sampled **once**, lazily, and every σ̂
evaluation — baseline and every candidate set — replays the same batch
through one kernel call. Greedy/CELF then spend one vectorized sweep per
candidate instead of ``runs`` Python simulations, which is where the
sigma-throughput acceptance number comes from.

The worlds come from :func:`~repro.kernels.worlds.sample_worlds` (the
counter-keyed rule of :mod:`repro.rng`), so every backend races the
same worlds and σ̂ does not depend on the backend.

Given a multi-worker :class:`repro.exec.pool.ParallelExecutor`,
:meth:`BatchedSigmaEvaluator.sigma_many` fans a whole candidate round
out over its pool: every worker re-derives the *same* coupled world
batch from the evaluator's seed (world ``i`` is a pure function of
``(seed, spec, i)``), races its candidate chunk against it, and the
per-candidate σ̂ values come back in submission order — bit-identical to
calling :meth:`~BatchedSigmaEvaluator.sigma` in a loop.

Deterministic models (DOAM) collapse to a single world, making σ̂ exact.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.algorithms.base import SelectionContext
from repro.diffusion.base import DEFAULT_MAX_HOPS, DiffusionModel, SeedSets
from repro.diffusion.opoao import OPOAOModel
from repro.errors import SelectionError
from repro.graph.digraph import Node
from repro.kernels.base import BatchOutcome
from repro.kernels.registry import BACKEND_AUTO, resolve_backend
from repro.kernels.spec import KernelSpec, spec_for_model
from repro.kernels.worlds import WorldBatch, sample_worlds
from repro.obs.registry import metrics
from repro.rng import RngStream, derive_seed
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.exec.pool import ParallelExecutor

__all__ = ["BatchedSigmaEvaluator"]


def _race_end_sets(
    backend, graph, spec, worlds, rumor_ids, protector_ids, end_ids, max_hops
) -> List[FrozenSet[int]]:
    """Per-world sets of bridge ends the rumor takes under ``protector_ids``.

    The single code path every σ̂ evaluation goes through — serial calls
    and pool workers run exactly these kernel invocations, which is what
    keeps their work counters and results identical.
    """
    seeds = SeedSets(rumors=rumor_ids, protectors=protector_ids)
    outcome = backend.run_worlds(graph, spec, worlds, seeds, max_hops)
    return [
        outcome.infected_members(world, end_ids)
        for world in range(outcome.batch)
    ]


def _sigma_from_race(state: Dict[str, object], protector_ids) -> float:
    """One σ̂ evaluation against a prepared race state (shared with workers)."""
    metrics().inc("selector.sigma_evaluations")
    infected_now_per_world = _race_end_sets(
        state["backend"], state["graph"], state["spec"], state["worlds"],
        state["rumor_ids"], protector_ids, state["end_ids"], state["max_hops"],
    )
    saved_total = 0
    for at_risk, infected_now in zip(state["baseline"], infected_now_per_world):
        saved_total += len(at_risk - infected_now)
    return saved_total / state["runs"]


def _sigma_worker_setup(graph, payload):
    """Pool worker set-up: rebuild the race state from primitives.

    Runs under the null registry (see :mod:`repro.exec.pool`): the
    re-derived world sample and baseline race are redundant per-worker
    preparation and must not inflate the merged work counters.
    """
    backend = resolve_backend(payload["backend"])
    spec = KernelSpec(payload["kind"], payload["probability"])
    worlds = sample_worlds(
        graph, spec, range(payload["runs"]), payload["max_hops"], payload["seed"]
    )
    state = {
        "backend": backend,
        "graph": graph,
        "spec": spec,
        "worlds": worlds,
        "rumor_ids": payload["rumor_ids"],
        "end_ids": payload["end_ids"],
        "max_hops": payload["max_hops"],
        "runs": payload["runs"],
    }
    state["baseline"] = _race_end_sets(
        backend, graph, spec, worlds, payload["rumor_ids"], (),
        payload["end_ids"], payload["max_hops"],
    )
    return state


def _sigma_worker_chunk(state, chunk):
    """Pool worker task: σ̂ for a chunk of resolved protector-id lists."""
    return [_sigma_from_race(state, protector_ids) for protector_ids in chunk]


class BatchedSigmaEvaluator:
    """Kernel-backed estimator of the protector influence σ(A).

    Args:
        context: the LCRB instance.
        model: diffusion model (OPOAO by default); reduced to its kernel
            spec via :func:`~repro.kernels.spec.spec_for_model`.
        runs: number of coupled worlds (deterministic models use 1).
        max_hops: horizon per world.
        rng: base stream; only its *seed* is consumed (worlds are derived
            deterministically from it, so two evaluators built from equal
            streams see identical worlds).
        backend: backend name (``"python"``/``"numpy"``/``"auto"``);
            every backend gives the same σ̂.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` that
            :meth:`sigma_many` fans candidate rounds out over, warm
            across greedy/CELF rounds; parallel evaluation is
            bit-identical to serial, see ``docs/parallel.md``. ``None``
            runs serially.
    """

    def __init__(
        self,
        context: SelectionContext,
        model: Optional[DiffusionModel] = None,
        runs: int = 30,
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
        backend: Optional[str] = BACKEND_AUTO,
        executor: Optional["ParallelExecutor"] = None,
    ) -> None:
        self.context = context
        self.model = model or OPOAOModel()
        self.spec = spec_for_model(self.model)
        self.backend = resolve_backend(backend)
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.runs = (
            int(check_positive(runs, "runs")) if self.spec.stochastic else 1
        )
        self._executor = executor
        self.rng = rng or RngStream(name="sigma")
        self._rumor_ids = context.rumor_seed_ids()
        self._end_ids = context.bridge_end_ids()
        self._worlds: Optional[WorldBatch] = None
        self._baseline: Optional[List[FrozenSet[int]]] = None
        self.evaluations = 0  # σ̂ calls, mirroring SigmaEstimator

    @property
    def worlds(self) -> WorldBatch:
        """The lazily-sampled coupled world batch (sampled exactly once)."""
        if self._worlds is None:
            self._worlds = sample_worlds(
                self.context.indexed,
                self.spec,
                range(self.runs),
                self.max_hops,
                derive_seed(self.rng.seed, "sigma-worlds"),
            )
        return self._worlds

    def run_batch(self, protector_ids: Sequence[int]) -> BatchOutcome:
        """Race every world against one protector configuration."""
        seeds = SeedSets(rumors=self._rumor_ids, protectors=protector_ids)
        return self.backend.run_worlds(
            self.context.indexed, self.spec, self.worlds, seeds, self.max_hops
        )

    def infected_end_sets(
        self, protector_ids: Sequence[int]
    ) -> List[FrozenSet[int]]:
        """Per-world sets of bridge ends the rumor takes under ``A``."""
        return _race_end_sets(
            self.backend, self.context.indexed, self.spec, self.worlds,
            self._rumor_ids, protector_ids, self._end_ids, self.max_hops,
        )

    @property
    def baseline(self) -> List[FrozenSet[int]]:
        """Per-world bridge ends infected with **no** protectors."""
        if self._baseline is None:
            self._baseline = self.infected_end_sets(())
        return self._baseline

    def _protector_ids(self, protectors: Iterable[Node]) -> List[int]:
        protector_ids = self.context.indexed.indices(dict.fromkeys(protectors))
        overlap = set(protector_ids) & set(self._rumor_ids)
        if overlap:
            raise SelectionError(
                f"protectors overlap rumor seeds: {sorted(overlap)[:5]}"
            )
        return protector_ids

    def _race_state(self) -> Dict[str, object]:
        """This evaluator's own race state, in worker-state shape."""
        return {
            "backend": self.backend,
            "graph": self.context.indexed,
            "spec": self.spec,
            "worlds": self.worlds,
            "rumor_ids": self._rumor_ids,
            "end_ids": self._end_ids,
            "max_hops": self.max_hops,
            "runs": self.runs,
            "baseline": self.baseline,
        }

    def _worker_payload(self) -> Dict[str, object]:
        """Primitives a pool worker rebuilds the race state from."""
        return {
            "backend": self.backend.name,
            "kind": self.spec.kind,
            "probability": self.spec.probability,
            "runs": self.runs,
            "max_hops": self.max_hops,
            "seed": derive_seed(self.rng.seed, "sigma-worlds"),
            "rumor_ids": list(self._rumor_ids),
            "end_ids": list(self._end_ids),
        }

    def sigma(self, protectors: Iterable[Node]) -> float:
        """σ̂(A): mean size of the protector blocking set over the worlds."""
        protector_ids = self._protector_ids(protectors)
        self.evaluations += 1
        return _sigma_from_race(self._race_state(), protector_ids)

    def sigma_many(
        self, protector_sets: Sequence[Iterable[Node]]
    ) -> List[float]:
        """σ̂ for many candidate sets, fanned out over the worker pool.

        Bit-identical to ``[self.sigma(s) for s in protector_sets]`` in
        values, order, and merged work counters: the parent races its
        own baseline exactly once (counted, as in serial), workers
        re-derive worlds and baseline silently, and each candidate's
        race is counted exactly once in whichever process runs it.
        """
        id_sets = [self._protector_ids(sets) for sets in protector_sets]
        if not id_sets:
            return []
        from repro.exec.pool import resolve_workers

        executor = self._executor
        if executor is None or resolve_workers(executor.workers, len(id_sets)) <= 1:
            state = self._race_state()
            self.evaluations += len(id_sets)
            return [_sigma_from_race(state, ids) for ids in id_sets]
        self.baseline  # noqa: B018 - parent samples + races once, counted
        sigmas = executor.map_items(
            _sigma_worker_setup,
            _sigma_worker_chunk,
            self._worker_payload(),
            id_sets,
            graph=self.context.indexed,
        )
        self.evaluations += len(id_sets)
        return sigmas

    def protected_fraction(self, protectors: Iterable[Node]) -> float:
        """Mean fraction of bridge ends not infected at the end."""
        if not self._end_ids:
            return 1.0
        protector_ids = self._protector_ids(protectors)
        self.evaluations += 1
        metrics().inc("selector.sigma_evaluations")
        safe_total = 0
        for infected_now in self.infected_end_sets(protector_ids):
            safe_total += len(self._end_ids) - len(infected_now)
        return safe_total / (self.runs * len(self._end_ids))

    def __repr__(self) -> str:
        return (
            f"BatchedSigmaEvaluator(model={self.model.name}, "
            f"backend={self.backend.name}, runs={self.runs}, "
            f"max_hops={self.max_hops})"
        )

"""Monte-Carlo greedy for LCRB-P under OPOAO (Algorithm 1).

The objective ``σ(A)`` is the expected number of bridge ends saved by
seeding protectors ``A`` — the expected size of the protector blocking set
``PB(A)``: bridge ends that *would* be infected with no protectors but are
*not* infected when ``A`` is seeded (Section V.A.1). Theorem 1 proves σ is
monotone and submodular, so greedily adding the argmax-marginal-gain node
achieves (1 - 1/e)·OPT.

Estimation
----------
σ is estimated with **common random numbers**: replica ``i`` always races
the same realisation — the stream ``rng.replica(i)``, or with a kernel
``backend`` the world :class:`~repro.diffusion.simulation.Replicas`
samples once for ``i`` — whether protectors are seeded or not, so
``PB(A)`` is evaluated on coupled realisations exactly as the proof's
paired random graphs ``(G_R, G_P)``, and σ̂ is a *deterministic function of
the set A* given the base stream. That determinism is what lets CELF
(:mod:`repro.algorithms.celf`) reuse stale bounds soundly and makes greedy
runs reproducible.

Candidate pool
--------------
Algorithm 1 maximises over all of ``V \\ (S_P ∪ S_R)``; evaluating every
node is the "time consuming" cost the paper's conclusion laments. The
estimator therefore supports restricting candidates to the union of the
bridge ends' backward trees (``pool="bbst"``, default): nodes outside every
BBST are too far to beat the rumor to any bridge end when both cascades
advance at the same expected rate, so the restriction loses essentially
nothing while cutting the pool by orders of magnitude. ``pool="all"``
recovers the paper's literal search space.
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
    Set,
)

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.bridge.bbst import build_all_bbsts
from repro.diffusion.base import DEFAULT_MAX_HOPS, DiffusionModel, SeedSets
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import Replicas
from repro.errors import SelectionError
from repro.exec.pool import resolve_workers
from repro.graph.digraph import Node
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.validation import check_fraction, check_positive

if TYPE_CHECKING:
    from repro.exec.pool import ParallelExecutor

__all__ = ["SigmaEstimator", "GreedySelector", "candidate_pool"]


def candidate_pool(context: SelectionContext, pool: str = "bbst") -> List[Node]:
    """Resolve a named candidate pool for protector selection.

    Args:
        context: the LCRB instance.
        pool: ``"bbst"`` (union of all bridge-end backward trees, minus
            rumor seeds) or ``"all"`` (every eligible node).

    Returns:
        Candidates in deterministic order.
    """
    if pool == "all":
        return [node for node in context.graph.nodes() if context.eligible(node)]
    if pool != "bbst":
        raise SelectionError(f"pool must be 'bbst' or 'all', got {pool!r}")
    bbsts = build_all_bbsts(
        context.graph,
        sorted(context.bridge_ends, key=repr),
        context.rumor_seeds,
        rumor_arrival=context.rumor_arrival,
    )
    ordered: Dict[Node, None] = {}
    for tree in bbsts:
        for node in tree.distance_to_end:
            if context.eligible(node):
                ordered[node] = None
    return list(ordered)


def checked_protector_ids(
    context: SelectionContext, protectors: Iterable[Node], rumor_ids
) -> List[int]:
    """Node ids of ``protectors``, refusing any that is a rumor seed."""
    ids = context.indexed.indices(dict.fromkeys(protectors))
    overlap = set(ids) & set(rumor_ids)
    if overlap:
        raise SelectionError(f"protectors overlap rumor seeds: {sorted(overlap)[:5]}")
    return ids


#: the label that keys the kernel worlds of every σ̂ estimator.
SIGMA_WORLDS = "sigma-worlds"


def _race_end_sets(
    replicas: Replicas, rumor_ids, protector_ids, end_ids
) -> List[FrozenSet[int]]:
    """Per-replica sets of bridge ends the rumor takes under ``protector_ids``.

    The single code path every σ̂ evaluation goes through: serial calls
    and pool workers make exactly these races, which is what keeps their
    work counters and results identical.
    """
    outcome = replicas.race(SeedSets(rumors=rumor_ids, protectors=protector_ids))
    return [
        outcome.infected_members(world, end_ids) for world in range(outcome.batch)
    ]


def _sigma_from_race(race, protector_ids) -> float:
    """One σ̂ evaluation on ``race = (replicas, rumor_ids, end_ids,
    baseline)``, the state the estimator and its pool workers share."""
    replicas, rumor_ids, end_ids, baseline = race
    metrics().inc("selector.sigma_evaluations")
    infected_now_per_replica = _race_end_sets(
        replicas, rumor_ids, protector_ids, end_ids
    )
    saved_total = 0
    for at_risk, infected_now in zip(baseline, infected_now_per_replica):
        saved_total += len(at_risk - infected_now)
    return saved_total / len(baseline)


def _sigma_worker_setup(graph, payload):
    """Pool worker set-up: rebuild the race from the payload.

    Runs under the null registry (see :mod:`repro.exec.pool`): the
    re-derived worlds and baseline race are redundant per-worker
    preparation and must not inflate the merged work counters.
    """
    replicas = Replicas(
        graph, payload["model"], range(payload["runs"]), payload["max_hops"],
        payload["seed"], backend=payload["backend"], tag=SIGMA_WORLDS,
    )
    rumor_ids, end_ids = payload["rumor_ids"], payload["end_ids"]
    baseline = _race_end_sets(replicas, rumor_ids, (), end_ids)
    return replicas, rumor_ids, end_ids, baseline


def _sigma_worker_chunk(race, chunk):
    """Pool worker task: σ̂ for a chunk of resolved protector-id lists."""
    return [_sigma_from_race(race, protector_ids) for protector_ids in chunk]


class SigmaEstimator:
    """Coupled Monte-Carlo estimator of the protector influence σ(A).

    Args:
        context: the LCRB instance.
        model: diffusion model (OPOAO by default; any
            :class:`~repro.diffusion.base.DiffusionModel` works on the
            per-run engine, which is how the extension benches run greedy
            under IC/LT).
        runs: number of coupled replicas (a deterministic model has one).
        max_hops: horizon per run (paper: 31).
        rng: base stream; replica ``i`` always uses ``rng.replica(i)``, or
            with a ``backend`` the world keyed by its seed and ``i`` (two
            estimators built from equal streams see identical worlds).
        backend: ``None`` runs the model per replica; a kernel backend
            name (``"python"``/``"numpy"``/``"auto"``) races the
            replicas' worlds in one batched call per σ̂, on worlds
            sampled once. Every backend gives the same σ̂. Resolved on
            construction; :attr:`backend` holds the resolved name.
        executor: the :class:`~repro.exec.pool.ParallelExecutor` that
            :meth:`sigma_many` fans candidate rounds out over, warm
            across greedy/CELF rounds, on either engine; parallel
            evaluation is bit-identical to serial (see
            ``docs/parallel.md``). ``None`` runs serially.
    """

    def __init__(
        self,
        context: SelectionContext,
        model: Optional[DiffusionModel] = None,
        runs: int = 30,
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
        backend: Optional[str] = None,
        executor: Optional["ParallelExecutor"] = None,
    ) -> None:
        self.context = context
        self.model = model or OPOAOModel()
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.runs = (
            int(check_positive(runs, "runs")) if self.model.stochastic else 1
        )
        self._executor = executor
        self.rng = rng or RngStream(name="sigma")
        self._rumor_ids = context.rumor_seed_ids()
        self._end_ids = context.bridge_end_ids()
        self._replicas = Replicas(
            context.indexed, self.model, range(self.runs), self.max_hops,
            self.rng.seed, backend=backend, tag=SIGMA_WORLDS,
        )
        engine = self._replicas.backend
        self.backend: Optional[str] = None if engine is None else engine.name
        self._baseline: Optional[List[FrozenSet[int]]] = None
        self.evaluations = 0  # σ̂ calls, for the CELF-vs-greedy ablation

    def infected_end_sets(
        self, protector_ids: Sequence[int]
    ) -> List[FrozenSet[int]]:
        """Per-replica sets of bridge ends the rumor takes under ``A``."""
        return _race_end_sets(
            self._replicas, self._rumor_ids, protector_ids, self._end_ids
        )

    @property
    def baseline(self) -> List[FrozenSet[int]]:
        """Per-replica bridge ends infected with **no** protectors."""
        if self._baseline is None:
            self._baseline = self.infected_end_sets(())
        return self._baseline

    def _protector_ids(self, protectors: Iterable[Node]) -> List[int]:
        return checked_protector_ids(self.context, protectors, self._rumor_ids)

    def sigma(self, protectors: Iterable[Node]) -> float:
        """σ̂(A): mean size of the protector blocking set over replicas."""
        ids = self._protector_ids(protectors)
        self.evaluations += 1
        race = (self._replicas, self._rumor_ids, self._end_ids, self.baseline)
        return _sigma_from_race(race, ids)

    def sigma_many(
        self, protector_sets: Sequence[Iterable[Node]]
    ) -> List[float]:
        """σ̂ for many candidate sets, fanned out over the worker pool.

        Bit-identical to ``[self.sigma(s) for s in protector_sets]`` in
        values, order, and merged work counters: the parent races its
        own baseline exactly once (counted, as in serial), workers
        re-derive worlds and baseline silently, and each candidate's
        race is counted exactly once in whichever process runs it.
        Without a multi-worker pool it is that loop.
        """
        executor = self._executor
        if executor is None or resolve_workers(
            executor.workers, len(protector_sets)
        ) <= 1:
            return [self.sigma(protectors) for protectors in protector_sets]
        id_sets = [self._protector_ids(protectors) for protectors in protector_sets]
        self.baseline  # noqa: B018 - parent races once, counted
        sigmas = executor.map_items(
            _sigma_worker_setup,
            _sigma_worker_chunk,
            {
                "model": self.model,
                "backend": self.backend,
                "runs": self.runs,
                "max_hops": self.max_hops,
                "seed": self.rng.seed,
                "rumor_ids": list(self._rumor_ids),
                "end_ids": list(self._end_ids),
            },
            id_sets,
            graph=self.context.indexed,
        )
        self.evaluations += len(id_sets)
        return sigmas

    def protected_fraction(self, protectors: Iterable[Node]) -> float:
        """Mean fraction of bridge ends **not infected** at the end.

        Definition 2's protection level: a bridge end counts as protected
        when the rumor does not take it (whether actively protected or
        simply never reached). Races ``A`` alone, never the baseline.
        """
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
        backend = f", backend={self.backend!r}" if self.backend else ""
        return (
            f"SigmaEstimator(model={self.model.name}, runs={self.runs}, "
            f"max_hops={self.max_hops}{backend})"
        )


class GreedySelector(ProtectorSelector):
    """Algorithm 1: iteratively add the node with the best σ marginal gain.

    Two stopping modes, matching how the paper uses the algorithm:

    * ``budget=k`` passed to :meth:`select` — pick exactly ``k`` protectors
      (the OPOAO figures fix ``|P| = |R|``).
    * ``budget=None`` — run Algorithm 1's own loop: add protectors until
      the expected protected fraction of bridge ends reaches ``alpha``
      (Definition 3's LCRB-P level), configured at construction.

    Args:
        model: diffusion model for σ estimation (default OPOAO).
        runs: coupled replicas per σ̂ evaluation.
        max_hops: horizon per run.
        alpha: protection level for the budget-free mode, in (0, 1).
        pool: candidate pool name (see :func:`candidate_pool`).
        max_candidates: optional hard cap on the pool, keeping the
            candidates with the largest BBST coverage first (an explicit
            tractability knob; ``None`` = no cap).
        rng: base stream (forked internally; the selector never mutates
            the caller's stream position).
        backend: the :class:`SigmaEstimator` engine: ``None`` runs the
            model per replica; a kernel backend name (``"python"``/
            ``"numpy"``/``"auto"``) races sampled worlds in one batched
            call per σ̂ (every backend races the same worlds and picks the
            same set).
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; when set, every completed selection round
            is saved, and a matching checkpoint resumes from its chosen
            prefix — finishing bit-identical to an uninterrupted run.
        executor: a :class:`~repro.exec.pool.ParallelExecutor` handed
            down to the estimator so σ̂ rounds fan out over one warm pool
            (e.g. the CLI-owned pool), on either engine; selections are
            bit-identical whatever the worker count. ``None`` runs
            serially.
    """

    name = "Greedy"

    def __init__(
        self,
        model: Optional[DiffusionModel] = None,
        runs: int = 30,
        max_hops: int = DEFAULT_MAX_HOPS,
        alpha: float = 0.8,
        pool: str = "bbst",
        max_candidates: Optional[int] = None,
        rng: Optional[RngStream] = None,
        backend: Optional[str] = None,
        checkpoint=None,
        executor=None,
    ) -> None:
        self.model = model or OPOAOModel()
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.alpha = check_fraction(alpha, "alpha", exclusive=True)
        self.pool = pool
        if max_candidates is not None:
            max_candidates = int(check_positive(max_candidates, "max_candidates"))
        self.max_candidates = max_candidates
        self.rng = rng or RngStream(name="greedy")
        self.backend = backend
        self.checkpoint = checkpoint
        self.executor = executor
        #: σ̂ evaluations consumed by the most recent select() call — the
        #: quantity the CELF-vs-greedy ablation bench compares.
        self.last_evaluations = 0

    # -- shared machinery (CELF subclasses reuse these) -------------------------

    def make_estimator(self, context: SelectionContext) -> SigmaEstimator:
        """Build the σ estimator bound to this selector's settings."""
        return SigmaEstimator(
            context,
            model=self.model,
            runs=self.runs,
            max_hops=self.max_hops,
            rng=self.rng.fork("sigma"),
            backend=self.backend,
            executor=self.executor,
        )

    def candidates(self, context: SelectionContext) -> List[Node]:
        """Resolve (and possibly cap) the candidate pool."""
        nodes = candidate_pool(context, self.pool)
        if self.max_candidates is not None and len(nodes) > self.max_candidates:
            coverage = _bbst_coverage_sizes(context)
            order = {node: position for position, node in enumerate(nodes)}
            nodes.sort(key=lambda node: (-coverage.get(node, 0), order[node]))
            nodes = nodes[: self.max_candidates]
        return nodes

    def _stop(
        self,
        estimator: SigmaEstimator,
        chosen: List[Node],
        budget: Optional[int],
    ) -> bool:
        if budget is not None:
            return len(chosen) >= budget
        return estimator.protected_fraction(chosen) >= self.alpha

    # -- checkpointing (shared with the CELF subclass) ---------------------------

    def _checkpoint_key(self, context: SelectionContext) -> str:
        """Run-key fingerprint for greedy-family checkpoints.

        Deliberately excludes ``budget`` and ``alpha``: greedy selection
        is prefix-consistent in the budget (round ``k`` picks the same
        node whatever the eventual stopping point), so a shorter run's
        checkpoint seeds a longer one. CELF shares the kind and the key
        — under the coupled deterministic σ̂ it picks the same prefix as
        exhaustive greedy.

        ``draws`` names the kernel estimator's draw rule (``None`` for
        the per-replica estimator); no backend is named, since every
        backend races the same worlds.
        """
        from repro.exec.checkpoint import run_key
        from repro.rng import PICK_RULE_VERSION

        return run_key(
            kind="greedy",
            model=self.model.name,
            runs=self.runs,
            max_hops=self.max_hops,
            seed=self.rng.seed,
            pool=self.pool,
            max_candidates=self.max_candidates,
            draws=None if self.backend is None else PICK_RULE_VERSION,
            nodes=context.indexed.node_count,
            edges=context.indexed.edge_count,
            rumors=sorted(context.rumor_seed_ids()),
            ends=sorted(context.bridge_end_ids()),
        )

    def _restore_chosen(
        self, store, key: str, context: SelectionContext, budget: Optional[int]
    ) -> List[Node]:
        """The checkpointed chosen prefix (possibly truncated to budget)."""
        entry = store.load("greedy", key)
        if entry is None:
            return []
        ids = [int(node_id) for node_id in entry["state"]["chosen_ids"]]
        if budget is not None:
            ids = ids[:budget]
        labels = context.indexed.labels
        chosen = [labels[node_id] for node_id in ids]
        if chosen:
            metrics().inc("exec.resumed_rounds", len(chosen))
        return chosen

    def _save_chosen(
        self, store, key: str, context: SelectionContext, chosen: List[Node]
    ) -> None:
        store.save(
            "greedy",
            key,
            {"chosen_ids": context.indexed.indices(chosen)},
            rounds=len(chosen),
        )

    # -- the algorithm -----------------------------------------------------------

    def select(
        self, context: SelectionContext, budget: Optional[int] = None
    ) -> List[Node]:
        budget = self._check_budget(budget)
        self.last_evaluations = 0
        if budget == 0 or not context.bridge_ends:
            return []
        estimator = self.make_estimator(context)
        pool = self.candidates(context)
        if not pool:
            raise SelectionError("candidate pool is empty")

        from repro.exec.checkpoint import as_store

        store = as_store(self.checkpoint)
        key = "" if store is None else self._checkpoint_key(context)
        chosen: List[Node] = (
            [] if store is None
            else self._restore_chosen(store, key, context, budget)
        )
        chosen_set: Set[Node] = set(chosen)
        marginal_calls = 0
        while not self._stop(estimator, chosen, budget):
            if len(chosen) >= len(pool):
                if budget is None:
                    raise SelectionError(
                        f"pool exhausted at protected fraction "
                        f"{estimator.protected_fraction(chosen):.3f} < alpha={self.alpha}"
                    )
                break
            remaining = [node for node in pool if node not in chosen_set]
            sigmas = estimator.sigma_many([chosen + [node] for node in remaining])
            marginal_calls += len(remaining)
            best_node: Optional[Node] = None
            best_sigma = -1.0
            # Strict > keeps the first-in-pool-order tie-break of the
            # original per-node loop.
            for node, sigma in zip(remaining, sigmas):
                if sigma > best_sigma:
                    best_sigma = sigma
                    best_node = node
            assert best_node is not None
            chosen.append(best_node)
            chosen_set.add(best_node)
            if store is not None:
                self._save_chosen(store, key, context, chosen)
        self.last_evaluations = estimator.evaluations
        registry = metrics()
        if registry.enabled:
            registry.counter("selector.marginal_gain_calls").add(marginal_calls)
        return chosen

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(model={self.model.name}, runs={self.runs}, "
            f"alpha={self.alpha}, pool={self.pool!r})"
        )


def _bbst_coverage_sizes(context: SelectionContext) -> Dict[Node, int]:
    """How many bridge ends each node's BBST membership covers (cheap proxy)."""
    bbsts = build_all_bbsts(
        context.graph,
        sorted(context.bridge_ends, key=repr),
        context.rumor_seeds,
        rumor_arrival=context.rumor_arrival,
    )
    sizes: Dict[Node, int] = {}
    for tree in bbsts:
        for node in tree.distance_to_end:
            sizes[node] = sizes.get(node, 0) + 1
    return sizes

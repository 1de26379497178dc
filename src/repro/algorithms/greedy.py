"""Monte-Carlo greedy for LCRB-P under OPOAO (Algorithm 1).

The objective ``σ(A)`` is the expected number of bridge ends saved by
seeding protectors ``A`` — the expected size of the protector blocking set
``PB(A)``: bridge ends that *would* be infected with no protectors but are
*not* infected when ``A`` is seeded (Section V.A.1). Theorem 1 proves σ is
monotone and submodular, so greedily adding the argmax-marginal-gain node
achieves (1 - 1/e)·OPT.

Estimation
----------
σ is estimated with **common random numbers**: replica ``i`` always runs on
the stream ``rng.replica(i)``, whether protectors are seeded or not, so
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

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.bridge.bbst import build_all_bbsts
from repro.diffusion.base import DEFAULT_MAX_HOPS, INFECTED, DiffusionModel, SeedSets
from repro.diffusion.opoao import OPOAOModel
from repro.errors import SelectionError
from repro.graph.digraph import Node
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.utils.validation import check_fraction, check_positive

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


class SigmaEstimator:
    """Coupled Monte-Carlo estimator of the protector influence σ(A).

    Args:
        context: the LCRB instance.
        model: diffusion model (OPOAO by default; any
            :class:`~repro.diffusion.base.DiffusionModel` works, which is
            how the extension benches run greedy under IC/LT).
        runs: number of coupled replicas.
        max_hops: horizon per run (paper: 31).
        rng: base stream; replica ``i`` always uses ``rng.replica(i)``.
    """

    def __init__(
        self,
        context: SelectionContext,
        model: Optional[DiffusionModel] = None,
        runs: int = 30,
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.context = context
        self.model = model or OPOAOModel()
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.rng = rng or RngStream(name="sigma")
        self._rumor_ids = context.rumor_seed_ids()
        self._end_ids = context.bridge_end_ids()
        self._baseline: Optional[List[FrozenSet[int]]] = None
        self.evaluations = 0  # σ̂ calls, for the CELF-vs-greedy ablation

    def _infected_ends(self, protector_ids: Sequence[int], replica: int) -> FrozenSet[int]:
        seeds = SeedSets(rumors=self._rumor_ids, protectors=protector_ids)
        outcome = self.model.run(
            self.context.indexed,
            seeds,
            rng=self.rng.replica(replica) if self.model.stochastic else None,
            max_hops=self.max_hops,
        )
        return frozenset(
            end for end in self._end_ids if outcome.states[end] == INFECTED
        )

    @property
    def baseline(self) -> List[FrozenSet[int]]:
        """Per-replica bridge ends infected with **no** protectors."""
        if self._baseline is None:
            self._baseline = [
                self._infected_ends((), replica) for replica in range(self.runs)
            ]
        return self._baseline

    def sigma(self, protectors: Iterable[Node]) -> float:
        """σ̂(A): mean size of the protector blocking set over replicas."""
        protector_ids = self.context.indexed.indices(dict.fromkeys(protectors))
        overlap = set(protector_ids) & set(self._rumor_ids)
        if overlap:
            raise SelectionError(f"protectors overlap rumor seeds: {sorted(overlap)[:5]}")
        self.evaluations += 1
        metrics().inc("selector.sigma_evaluations")
        saved_total = 0
        for replica, at_risk in enumerate(self.baseline):
            infected_now = self._infected_ends(protector_ids, replica)
            saved_total += len(at_risk - infected_now)
        return saved_total / self.runs

    def protected_fraction(self, protectors: Iterable[Node]) -> float:
        """Mean fraction of bridge ends **not infected** at the end.

        Definition 2's protection level: a bridge end counts as protected
        when the rumor does not take it (whether actively protected or
        simply never reached).
        """
        if not self._end_ids:
            return 1.0
        protector_ids = self.context.indexed.indices(dict.fromkeys(protectors))
        self.evaluations += 1
        metrics().inc("selector.sigma_evaluations")
        safe_total = 0
        for replica in range(self.runs):
            infected_now = self._infected_ends(protector_ids, replica)
            safe_total += len(self._end_ids) - len(infected_now)
        return safe_total / (self.runs * len(self._end_ids))

    def __repr__(self) -> str:
        return (
            f"SigmaEstimator(model={self.model.name}, runs={self.runs}, "
            f"max_hops={self.max_hops})"
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
        backend: ``None`` estimates σ with the per-replica
            :class:`SigmaEstimator`; a kernel backend name (``"python"``/
            ``"numpy"``/``"auto"``) swaps in the batched
            :class:`~repro.kernels.sigma.BatchedSigmaEvaluator` (same
            coupled-worlds semantics, one vectorized sweep per σ̂ call;
            every backend races the same worlds and picks the same set).
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; when set, every completed selection round
            is saved, and a matching checkpoint resumes from its chosen
            prefix — finishing bit-identical to an uninterrupted run.
        executor: a :class:`~repro.exec.pool.ParallelExecutor` handed
            down to the batched estimator so σ̂ rounds fan out over one
            warm pool (e.g. the CLI-owned pool). Only the batched
            estimator can fan out, so this needs ``backend``; selections
            are bit-identical whatever the worker count. ``None`` runs
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
        """Build the σ estimator bound to this selector's settings.

        With a kernel ``backend`` configured this returns a
        :class:`~repro.kernels.sigma.BatchedSigmaEvaluator`, which is
        duck-compatible with :class:`SigmaEstimator` for everything the
        selection loop consumes (``sigma``, ``protected_fraction``,
        ``evaluations``).
        """
        if self.backend is not None:
            from repro.kernels.sigma import BatchedSigmaEvaluator

            return BatchedSigmaEvaluator(
                context,
                model=self.model,
                runs=self.runs,
                max_hops=self.max_hops,
                rng=self.rng.fork("sigma"),
                backend=self.backend,
                executor=self.executor,
            )
        return SigmaEstimator(
            context,
            model=self.model,
            runs=self.runs,
            max_hops=self.max_hops,
            rng=self.rng.fork("sigma"),
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

    @staticmethod
    def _sigma_batch(estimator, candidate_sets: List[List[Node]]) -> List[float]:
        """σ̂ for a whole round of candidate sets, in order.

        Routed through the estimator's ``sigma_many`` when it has one
        (the batched evaluator fans the round out over its worker pool);
        otherwise a plain per-set loop. Both paths return the same
        values in the same order, so the selection below is identical.
        """
        batched = getattr(estimator, "sigma_many", None)
        if batched is not None:
            return batched(candidate_sets)
        return [estimator.sigma(candidate) for candidate in candidate_sets]

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
            sigmas = self._sigma_batch(
                estimator, [chosen + [node] for node in remaining]
            )
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

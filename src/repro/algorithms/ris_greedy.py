"""Sketch-greedy protector selection over an RR-set store.

Where Algorithm 1 evaluates σ̂ by simulation for every candidate in
every round, :class:`RISGreedySelector` reduces selection to **weighted
max coverage** over the RR sets held in a
:class:`repro.sketch.store.SketchStore`: picking the node contained in
the most not-yet-covered sets maximises the σ̂ marginal gain exactly, so
the classic lazy-greedy (CELF-style) heap applies with *exact* stale
bounds — coverage counts are integers, not noisy estimates. The
(1 - 1/e)-approximation of max coverage composes with the sketch
estimator's (ε, δ) concentration the same way as in the RIS influence
-maximisation literature (Tong et al., arXiv:1701.02368), giving
(1 - 1/e - ε)-quality seed sets at a fraction of the simulation cost.

Both problem flavours are supported through the usual ``budget``
convention:

* ``budget=k`` — LCRB with a fixed protector count (the figures' mode).
* ``budget=None`` — keep covering until the estimated protected
  fraction of bridge ends reaches ``alpha`` (LCRB-P; with DOAM
  semantics and ``alpha=1.0`` this is LCRB-D's full cover).

Sample-size control: the selector greedifies the current store, then
asks the (ε, δ) stopping rule whether the chosen set's σ̂ is resolved
tightly enough; if not, the store doubles and greedy reruns — the
IMM-style loop, with all sketches reused across iterations *and* across
``select`` calls on the same context (the store is cached per context).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.diffusion.base import DEFAULT_MAX_HOPS
from repro.graph.digraph import Node
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.sketch.coverage import max_coverage
from repro.sketch.rrset import sampler_for
from repro.sketch.store import SketchStore
from repro.utils.validation import check_fraction, check_positive

__all__ = ["RISGreedySelector"]


class RISGreedySelector(ProtectorSelector):
    """Lazy-greedy max coverage over RR-set sketches.

    Args:
        semantics: ``"doam"`` (default; LCRB-D's deterministic model) or
            ``"opoao"``.
        epsilon: relative-precision target of the stopping rule.
        delta: confidence parameter of the stopping rule.
        steps: diffusion horizon per world (paper: 31).
        alpha: protection level for the budget-free mode, in (0, 1].
        initial_worlds: sketch sample size before the first greedy pass
            (deterministic semantics need exactly one world).
        max_worlds: hard cap on adaptive doubling.
        rng: base stream for world sampling.
        verify_backend: optional kernel backend name; when set, every
            ``select`` cross-checks the picked set with an independent
            batched simulation (:class:`~repro.kernels.sigma.\
BatchedSigmaEvaluator`) and records the achieved protected fraction in
            :attr:`last_kernel_protected_fraction` and the
            ``ris.kernel_protected_fraction`` gauge.
        verify_runs: coupled worlds for the verification estimate.
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; when set, the store's sampled worlds are
            saved after every growth round, and a matching checkpoint
            restores them — worlds are pure functions of their index, so
            the restored arrays are bit-identical to resampling.
        executor: a :class:`~repro.exec.pool.ParallelExecutor` handed
            down to every :class:`~repro.sketch.store.SketchStore` so
            doubling rounds fan out over one warm pool. Selections are
            bit-identical regardless. ``None`` runs serially.
        backend: sketch-kernel backend for RR-set sampling (``"numpy"``,
            ``"python"``, or ``None``/``"auto"`` for the fastest
            available) — forwarded to the store; bit-identical either
            way (see :mod:`repro.sketch.kernels`).
    """

    name = "RIS-Greedy"

    def __init__(
        self,
        semantics: str = "doam",
        epsilon: float = 0.1,
        delta: float = 0.05,
        steps: int = DEFAULT_MAX_HOPS,
        alpha: float = 0.8,
        initial_worlds: int = 64,
        max_worlds: int = 4096,
        rng: Optional[RngStream] = None,
        verify_backend: Optional[str] = None,
        verify_runs: int = 64,
        checkpoint=None,
        executor=None,
        backend: Optional[str] = None,
    ) -> None:
        self.semantics = semantics
        self.epsilon = check_fraction(epsilon, "epsilon", exclusive=True)
        self.delta = check_fraction(delta, "delta", exclusive=True)
        self.steps = int(check_positive(steps, "steps"))
        self.alpha = check_fraction(alpha, "alpha")
        self.initial_worlds = int(check_positive(initial_worlds, "initial_worlds"))
        self.max_worlds = int(check_positive(max_worlds, "max_worlds"))
        self.rng = rng or RngStream(name="ris-greedy")
        self.verify_backend = verify_backend
        self.verify_runs = int(check_positive(verify_runs, "verify_runs"))
        self.checkpoint = checkpoint
        self.executor = executor
        self.backend = backend
        #: worlds held by the store after the most recent select() call.
        self.last_worlds = 0
        #: protected fraction the kernel verification measured for the
        #: most recent select() call (None when verification is off).
        self.last_kernel_protected_fraction: Optional[float] = None
        #: per-context sketch cache: id(context) -> (context, store).
        self._stores: Dict[int, Tuple[SelectionContext, SketchStore]] = {}

    # -- store management --------------------------------------------------------

    def make_store(self, context: SelectionContext) -> SketchStore:
        """The cached store for ``context`` (created on first use).

        Sketches depend only on the instance (graph, rumor seeds, bridge
        ends) — never on budgets or previous picks — so repeated
        ``select`` calls on one context reuse every sampled world.
        """
        key = id(context)
        cached = self._stores.get(key)
        if cached is not None and cached[0] is context:
            return cached[1]
        sampler = sampler_for(
            self.semantics, context, steps=self.steps, rng=self.rng.fork("worlds")
        )
        store = SketchStore(sampler, executor=self.executor, backend=self.backend)
        self._stores[key] = (context, store)
        return store

    # -- checkpointing ----------------------------------------------------------

    def _checkpoint_key(self, context: SelectionContext) -> str:
        """Run-key fingerprint for sketch checkpoints.

        Excludes budget, alpha, and the (ε, δ) precision targets: worlds
        are pure functions of their index, so any run over the same
        instance and sampling configuration shares the sampled prefix.
        Includes the draw rule's version, so worlds drawn under another
        rule never mix into the store.
        """
        from repro.exec.checkpoint import run_key
        from repro.rng import PICK_RULE_VERSION

        return run_key(
            kind="sketch",
            draws=PICK_RULE_VERSION,
            semantics=self.semantics,
            steps=self.steps,
            seed=self.rng.seed,
            nodes=context.indexed.node_count,
            edges=context.indexed.edge_count,
            rumors=sorted(context.rumor_seed_ids()),
            ends=sorted(context.bridge_end_ids()),
        )

    def _restore_store(self, ckpt, key: str, store: SketchStore) -> None:
        if store.worlds:  # cached store already holds sampled worlds
            return
        entry = ckpt.load("sketch", key)
        if entry is None:
            return
        store.load_state(entry["state"])
        metrics().inc("exec.resumed_rounds", int(entry["rounds"]))

    @staticmethod
    def _save_store(ckpt, key: str, store: SketchStore) -> None:
        ckpt.save("sketch", key, store.state_dict(), rounds=store.worlds)

    # -- the algorithm -----------------------------------------------------------

    def select(
        self, context: SelectionContext, budget: Optional[int] = None
    ) -> List[Node]:
        budget = self._check_budget(budget)
        if budget == 0 or not context.bridge_ends:
            return []
        from repro.exec.checkpoint import as_store

        store = self.make_store(context)
        ckpt = as_store(self.checkpoint)
        key = "" if ckpt is None else self._checkpoint_key(context)
        if ckpt is not None:
            self._restore_store(ckpt, key, store)
        store.ensure_worlds(self.initial_worlds)
        if ckpt is not None:
            self._save_store(ckpt, key, store)
        while True:
            picked = self._max_coverage(store, context, budget)
            if not store.sampler.stochastic:
                break
            if store.precision_ok(picked, self.epsilon, self.delta):
                break
            if store.worlds >= self.max_worlds:
                break
            store.ensure_worlds(min(self.max_worlds, 2 * store.worlds))
            if ckpt is not None:
                self._save_store(ckpt, key, store)
        self.last_worlds = store.worlds
        labels = context.indexed.labels
        chosen = [labels[node] for node in picked]
        if self.verify_backend is not None:
            self._verify(context, chosen)
        return chosen

    def _verify(self, context: SelectionContext, chosen: List[Node]) -> None:
        """Cross-check the sketch pick with an independent kernel race."""
        from repro.diffusion.doam import DOAMModel
        from repro.diffusion.opoao import OPOAOModel
        from repro.kernels.sigma import BatchedSigmaEvaluator

        model = DOAMModel() if self.semantics == "doam" else OPOAOModel()
        evaluator = BatchedSigmaEvaluator(
            context,
            model=model,
            runs=self.verify_runs,
            max_hops=self.steps,
            rng=self.rng.fork("verify"),
            backend=self.verify_backend,
        )
        fraction = evaluator.protected_fraction(chosen)
        self.last_kernel_protected_fraction = fraction
        registry = metrics()
        if registry.enabled:
            registry.set_gauge("ris.kernel_protected_fraction", fraction)

    def _max_coverage(
        self,
        store: SketchStore,
        context: SelectionContext,
        budget: Optional[int],
    ) -> List[int]:
        """One lazy-greedy pass over the store's current sets."""
        return max_coverage(
            store,
            budget=budget,
            excluded=context.rumor_seed_ids(),
            alpha=self.alpha,
            end_count=len(context.bridge_end_ids()),
        )

    def __repr__(self) -> str:
        return (
            f"RISGreedySelector(semantics={self.semantics!r}, "
            f"epsilon={self.epsilon}, delta={self.delta}, alpha={self.alpha})"
        )

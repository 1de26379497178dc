"""The warm-state query service behind ``repro serve``.

One :class:`RumorBlockingService` owns:

* the **graph** — an :class:`~repro.graph.compact.IndexedDiGraph`
  mutated in place by :meth:`RumorBlockingService.apply_updates`;
* one **instance** per distinct rumor seed set — its bridge ends ``B``
  and a :class:`~repro.sketch.store.SketchStore` that persists across
  queries, so repeated questions about the same outbreak reuse every
  sampled world;
* one optional shared :class:`~repro.exec.pool.ParallelExecutor`, so
  every instance's doubling and refresh rounds fan out over the same
  warm pool (the executor re-publishes the graph automatically when its
  version changes).

Update handling is **lazy**: ``apply_updates`` only records the touched
endpoints per instance; the next query on an instance first re-derives
``B`` against the current adjacency — if ``B`` changed the instance is
rebuilt from the same derived RNG (bit-identical to a cold service on
the mutated graph), otherwise only the footprint-stale worlds are
resampled. Either way, answers equal what a fresh service computed on
the current graph with the same seed.

Determinism: the per-instance RNG derives from the service seed and the
sorted seed ids alone, the store's worlds are pure functions of their
index, and the greedy pass is RNG-free — so answers are a pure function
of (graph state, seed set, budget/alpha, worlds sampled). The asyncio
wrappers serialise under one FIFO lock, making N concurrent queries
bit-identical to the same N issued serially in submission order.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.bridge.rfst import find_bridge_end_ids
from repro.diffusion.base import DEFAULT_MAX_HOPS
from repro.errors import NodeNotFoundError, SeedError, ValidationError
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream
from repro.sketch.coverage import max_coverage
from repro.sketch.rrset import SKETCH_SEMANTICS, DOAMRRSampler, OPOAORRSampler
from repro.sketch.store import SketchStore
from repro.utils.validation import check_fraction, check_positive

__all__ = ["RumorBlockingService"]


class _Instance:
    """Warm per-seed-set state: bridge ends, sketch store, pending updates."""

    __slots__ = ("seed_ids", "end_ids", "store", "pending")

    def __init__(
        self, seed_ids: Tuple[int, ...], end_ids: List[int], store: SketchStore
    ) -> None:
        self.seed_ids = seed_ids
        self.end_ids = end_ids
        self.store = store
        #: endpoints of edge updates not yet reconciled into the store.
        self.pending: set = set()


class RumorBlockingService:
    """Long-running rumor-blocking query service over one dynamic graph.

    Args:
        graph: the indexed graph; the service mutates it in place.
        community_ids: node ids of the rumor community ``C_r`` (queries
            must seed inside it; Definition 2).
        semantics: ``"opoao"`` (stochastic, the default — queries carry
            meaningful (ε, δ) targets) or ``"doam"`` (deterministic).
        steps: diffusion horizon per world (paper: 31).
        seed: master seed; per-instance streams derive from it and the
            sorted seed ids, so answers are independent of query order.
        initial_worlds: sketch sample size before the first greedy pass.
        max_worlds: hard cap on adaptive doubling.
        executor: a :class:`~repro.exec.pool.ParallelExecutor` every
            store's world sampling fans out over, so all instances share
            one warm pool. ``None`` runs serially.
        backend: sketch-kernel backend for RR-set sampling (``"numpy"``,
            ``"python"``, or ``None``/``"auto"``), forwarded to every
            store; cold and warm paths are bit-identical either way.
    """

    def __init__(
        self,
        graph: IndexedDiGraph,
        community_ids: Iterable[int],
        semantics: str = "opoao",
        steps: int = DEFAULT_MAX_HOPS,
        seed: int = 13,
        initial_worlds: int = 64,
        max_worlds: int = 4096,
        executor=None,
        backend: Optional[str] = None,
    ) -> None:
        if semantics not in SKETCH_SEMANTICS:
            raise ValidationError(
                f"semantics must be one of {SKETCH_SEMANTICS}, got {semantics!r}"
            )
        self.graph = graph
        self.community: FrozenSet[int] = frozenset(
            self._check_node(node) for node in community_ids
        )
        if not self.community:
            raise ValidationError("community_ids must not be empty")
        self.semantics = semantics
        self.steps = int(check_positive(steps, "steps"))
        self.initial_worlds = int(check_positive(initial_worlds, "initial_worlds"))
        self.max_worlds = int(check_positive(max_worlds, "max_worlds"))
        self.backend = backend
        self._executor = executor
        self._rng = RngStream(seed, name="serve")
        self._instances: Dict[Tuple[int, ...], _Instance] = {}
        self._lock = asyncio.Lock()

    # -- validation --------------------------------------------------------------

    def _check_node(self, node: int) -> int:
        if isinstance(node, bool) or not isinstance(node, int):
            raise NodeNotFoundError(node)
        if not 0 <= node < self.graph.node_count:
            raise NodeNotFoundError(node)
        return node

    def _seed_key(self, rumor_seeds: Iterable[int]) -> Tuple[int, ...]:
        seeds = tuple(sorted(dict.fromkeys(rumor_seeds)))
        if not seeds:
            raise SeedError("rumor seed set must not be empty")
        for node in seeds:
            self._check_node(node)
            if node not in self.community:
                raise SeedError(
                    f"rumor seed {node!r} is outside the rumor community "
                    "(Definition 2 requires S_R ⊆ V(C_k))"
                )
        return seeds

    # -- instance management -----------------------------------------------------

    def _build_sampler(self, seed_ids: Tuple[int, ...], end_ids: List[int]):
        rng = self._rng.fork("instance", *seed_ids)
        if self.semantics == "opoao":
            return OPOAORRSampler(
                self.graph, list(seed_ids), end_ids, steps=self.steps, rng=rng
            )
        return DOAMRRSampler(
            self.graph, list(seed_ids), end_ids, max_hops=self.steps, rng=rng
        )

    def _build_instance(self, seed_ids: Tuple[int, ...]) -> _Instance:
        end_ids = sorted(
            find_bridge_end_ids(self.graph, self.community, seed_ids)
        )
        store = SketchStore(
            self._build_sampler(seed_ids, end_ids),
            executor=self._executor,
            backend=self.backend,
        )
        return _Instance(seed_ids, end_ids, store)

    def _reconcile(self, instance: _Instance) -> int:
        """Fold pending edge updates into one instance's warm state.

        Returns the number of RR sets invalidated. When the update
        changed the bridge-end set the whole store is rebuilt (same
        derived RNG, so the result matches a cold service on the current
        graph); otherwise only footprint-stale worlds resample.
        """
        if not instance.pending:
            return 0
        end_ids = sorted(
            find_bridge_end_ids(self.graph, self.community, instance.seed_ids)
        )
        if end_ids != instance.end_ids:
            invalidated = instance.store.set_count
            target = instance.store.worlds
            rebuilt = self._build_instance(instance.seed_ids)
            if target:
                rebuilt.store.ensure_worlds(target)
            instance.end_ids = rebuilt.end_ids
            instance.store = rebuilt.store
        else:
            _, invalidated = instance.store.refresh(instance.pending)
        instance.pending.clear()
        registry = metrics()
        if registry.enabled and invalidated:
            registry.counter("serve.rrsets.invalidated").add(invalidated)
        return invalidated

    # -- the query path ----------------------------------------------------------

    def query(
        self,
        rumor_seeds: Iterable[int],
        budget: Optional[int] = None,
        alpha: float = 0.8,
        epsilon: float = 0.1,
        delta: float = 0.05,
    ) -> Dict[str, object]:
        """Answer one rumor-blocking question against the current graph.

        Args:
            rumor_seeds: rumor originators (ids inside the community).
            budget: protector count; ``None`` covers to ``alpha``.
            alpha: protection target for the budget-free mode.
            epsilon: relative-precision target of the stopping rule.
            delta: confidence parameter of the stopping rule.

        Returns:
            A JSON-ready dict: ``blockers`` (ids), ``blocker_labels``,
            ``sigma`` (σ̂ of the picked set), ``worlds``,
            ``bridge_ends``, ``rrsets_sampled`` / ``rrsets_invalidated``
            (this query's sampling work), ``cold`` (True when the
            instance was built by this query), and ``graph_version``.
        """
        check_fraction(alpha, "alpha")
        check_fraction(epsilon, "epsilon", exclusive=True)
        check_fraction(delta, "delta", exclusive=True)
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, int) or budget < 0
        ):
            raise ValidationError(
                f"budget must be a non-negative int, got {budget!r}"
            )
        seed_ids = self._seed_key(rumor_seeds)
        registry = metrics()
        started = time.perf_counter()
        with registry.timer("serve.query"):
            instance = self._instances.get(seed_ids)
            cold = instance is None
            invalidated = 0
            if cold:
                instance = self._build_instance(seed_ids)
                self._instances[seed_ids] = instance
            else:
                invalidated = self._reconcile(instance)
            store = instance.store
            sampled_before = store.set_count
            picked: List[int] = []
            if instance.end_ids and (budget is None or budget > 0):
                store.ensure_worlds(self.initial_worlds)
                while True:
                    picked = max_coverage(
                        store,
                        budget=budget,
                        excluded=seed_ids,
                        alpha=alpha,
                        end_count=len(instance.end_ids),
                    )
                    if not store.sampler.stochastic:
                        break
                    if store.precision_ok(picked, epsilon, delta):
                        break
                    if store.worlds >= self.max_worlds:
                        break
                    store.ensure_worlds(min(self.max_worlds, 2 * store.worlds))
            sampled = (store.set_count - sampled_before) + invalidated
            sigma = store.sigma(picked) if store.worlds else 0.0
        if registry.enabled:
            registry.counter("serve.queries").add(1)
            if cold:
                registry.counter("serve.queries.cold").add(1)
            registry.counter("serve.rrsets.sampled").add(sampled)
            registry.histogram("serve.query_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
        return {
            "blockers": list(picked),
            "blocker_labels": [self.graph.labels[node] for node in picked],
            "sigma": sigma,
            "worlds": store.worlds,
            "bridge_ends": len(instance.end_ids),
            "rrsets_sampled": sampled,
            "rrsets_invalidated": invalidated,
            "cold": cold,
            "graph_version": self.graph.version,
        }

    # -- the update path ---------------------------------------------------------

    def apply_updates(
        self,
        insertions: Iterable[Sequence] = (),
        deletions: Iterable[Sequence] = (),
    ) -> List[int]:
        """Apply an edge-update batch; warm state reconciles lazily.

        Returns the sorted touched endpoint ids. Every warm instance
        records them and pays the (footprint-bounded) resampling cost on
        its *next* query — an update burst costs one reconcile, not one
        per batch.
        """
        insertions = list(insertions)
        deletions = list(deletions)
        touched = self.graph.apply_updates(insertions, deletions)
        for instance in self._instances.values():
            instance.pending |= touched
        registry = metrics()
        if registry.enabled:
            registry.counter("serve.updates").add(1)
            registry.counter("serve.edges.inserted").add(len(insertions))
            registry.counter("serve.edges.deleted").add(len(deletions))
        return sorted(touched)

    # -- inspection --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-ready snapshot of the warm state."""
        return {
            "graph": {
                "nodes": self.graph.node_count,
                "edges": self.graph.edge_count,
                "version": self.graph.version,
            },
            "community_size": len(self.community),
            "semantics": self.semantics,
            "instances": [
                {
                    "seeds": list(instance.seed_ids),
                    "bridge_ends": len(instance.end_ids),
                    "worlds": instance.store.worlds,
                    "rrsets": instance.store.set_count,
                    "pending_touched": len(instance.pending),
                }
                for instance in self._instances.values()
            ],
        }

    # -- asyncio wrappers --------------------------------------------------------
    #
    # One FIFO lock serialises every state-touching operation, so N
    # concurrent queries produce bit-identical answers to the same N
    # issued serially in submission order (asyncio.Lock wakes waiters
    # in acquisition order).

    async def query_async(
        self,
        rumor_seeds: Iterable[int],
        budget: Optional[int] = None,
        alpha: float = 0.8,
        epsilon: float = 0.1,
        delta: float = 0.05,
    ) -> Dict[str, object]:
        """:meth:`query` under the service lock."""
        async with self._lock:
            return self.query(
                rumor_seeds,
                budget=budget,
                alpha=alpha,
                epsilon=epsilon,
                delta=delta,
            )

    async def apply_updates_async(
        self,
        insertions: Iterable[Sequence] = (),
        deletions: Iterable[Sequence] = (),
    ) -> List[int]:
        """:meth:`apply_updates` under the service lock."""
        async with self._lock:
            return self.apply_updates(insertions, deletions)

    async def stats_async(self) -> Dict[str, object]:
        """:meth:`stats` under the service lock."""
        async with self._lock:
            return self.stats()

    def __repr__(self) -> str:
        return (
            f"RumorBlockingService(|V|={self.graph.node_count}, "
            f"|C_r|={len(self.community)}, semantics={self.semantics!r}, "
            f"instances={len(self._instances)}, "
            f"graph_version={self.graph.version})"
        )

"""Flat-array storage for sampled RR sets, with adaptive sample control.

A :class:`SketchStore` owns the RR sets produced by a
:mod:`repro.sketch.rrset` sampler and answers the two queries selection
needs fast:

* **membership** — which RR sets contain node ``u`` (the inverted
  ``node -> set ids`` index; its row lengths seed the gains of
  lazy-greedy max coverage), and
* **coverage** — how many sets (per world) a candidate protector set
  intersects, which is the σ̂ estimate.

Sets are stored structure-of-arrays style: one flat int32 array of
member ids plus an offsets array, rather than a list of Python sets —
compact, cache-friendly, and cheap to extend. The inverted index is a
CSR-packed postings table (``node -> ascending set ids``) built lazily
from those arrays — with NumPy when available, via a counting sort
otherwise — together with the ascending list of nodes that appear in
any set, and invalidated whenever a world is appended, so membership
queries return flat slices instead of per-node Python buckets and
coverage counts vectorise. Worlds are append-only and derived purely
from their replica index, so a store can grow its sample in place
(IMM-style doubling through :meth:`SketchStore.ensure_worlds`) without
disturbing the sets already drawn: growing a store from 32 to 64 worlds
yields the same arrays as sampling 64 worlds up front, which also makes
stores safely shareable across selector calls.

Sampling itself goes through :func:`repro.sketch.kernels.sample_worlds`
— the ``backend`` knob (``"numpy"``, ``"python"``, or auto) applies
both to serial rounds and inside pool workers, and every backend is
bit-identical by contract. Every world arrives packed (see
:meth:`~repro.sketch.rrset.WorldSample.packed`) and is appended from
those arrays.

The stopping rule is the classic relative-precision test: keep doubling
until the empirical (1 - δ)-confidence half-width of σ̂(A) is at most
ε · max(σ̂(A), 1). Deterministic samplers (DOAM) need exactly one world
and always report sufficient precision.

Dynamic graphs: when the sampler's graph mutates in place
(:meth:`repro.graph.compact.IndexedDiGraph.apply_updates` returns the
touched endpoint ids), :meth:`SketchStore.refresh` resamples **only**
the worlds the mutation could have changed — by default those whose
dependency footprint (see :class:`repro.sketch.rrset.WorldSample`)
intersects the touched set — and re-appends every other world
unchanged. Because worlds are pure functions of their index, the
refreshed arrays are bit-identical to a from-scratch store sampled on
the mutated graph with the same seed.

Because world ``i`` is a pure function of its index, a growth step is
embarrassingly parallel: given a multi-worker
:class:`repro.exec.pool.ParallelExecutor`, each doubling round fans
contiguous index chunks out over its pool (workers rebuild the sampler
from its graph-free payload) and appends the returned
:class:`~repro.sketch.rrset.WorldSample`\\ s **in index order** in the
parent — arrays, inverted index, and ``sketch.*`` metrics come out
bit-identical to a serial store.
"""

from __future__ import annotations

import math
from array import array
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ValidationError
from repro.obs.registry import metrics
from repro.sketch.kernels import _unique
from repro.utils.validation import check_fraction, check_positive

__all__ = ["PostingsIndex", "SketchStore"]


class PostingsIndex(NamedTuple):
    """The store's CSR tables, both directions (see
    :meth:`SketchStore.postings_index`).

    ``set_ids[indptr[node]:indptr[node + 1]]`` are the RR sets
    containing ``node``, ascending; ``members[offsets[set_id]:
    offsets[set_id + 1]]`` are the members of one set. With NumPy every
    column is an ndarray (int64 ``indptr``/``offsets``, int32
    ``set_ids``/``members``) and ``np`` is the module; without it the
    columns are machine arrays and ``np`` is ``None``. ``nodes`` lists
    the ids with a non-empty postings row, ascending.
    """

    indptr: Any
    set_ids: Any
    members: Any
    offsets: Any
    np: Any
    nodes: List[int]


def _sampler_worker_setup(graph, payload):
    """Pool worker set-up: rebuild the RR sampler against the shared graph."""
    from repro.sketch.rrset import rebuild_sampler

    return rebuild_sampler(graph, payload["sampler"]), payload["backend"]


def _sampler_worker_chunk(state, indices):
    """Pool worker task: sample a contiguous chunk of world indices."""
    from repro.sketch.kernels import sample_worlds

    sampler, backend = state
    return sample_worlds(sampler, indices, backend=backend)


class SketchStore:
    """Append-only RR-set store with an inverted node index.

    Args:
        sampler: an object with ``sample_world(index) -> WorldSample``
            and a ``stochastic`` flag (see :mod:`repro.sketch.rrset`).
        executor: the :class:`~repro.exec.pool.ParallelExecutor` whose
            warm pool serves every doubling round; workers rebuild the
            sampler from its ``worker_payload()``. Contents are
            bit-identical either way. ``None`` runs serially.
        backend: sketch-kernel backend for world sampling (``"numpy"``,
            ``"python"``, or ``None``/``"auto"`` for the fastest
            available); applied serially and inside pool workers. All
            backends are bit-identical, so this is purely a speed knob.
    """

    __slots__ = (
        "sampler",
        "backend",
        "_executor",
        "worlds",
        "_members",
        "_offsets",
        "_roots",
        "_world_of",
        "_sets_per_world",
        "_postings",
        "_world_np",
        "_footprints",
    )

    def __init__(
        self,
        sampler,
        executor=None,
        backend=None,
    ) -> None:
        self.sampler = sampler
        self.backend = backend
        self._executor = executor
        self._reset()

    def _reset(self) -> None:
        """Empty every column (construction, and :meth:`refresh`)."""
        #: number of worlds sampled so far.
        self.worlds = 0
        self._members = array("i")  # all RR-set members, concatenated
        self._offsets = array("q", [0])  # set i = members[offsets[i]:offsets[i+1]]
        self._roots = array("i")  # bridge end each set was grown from
        self._world_of = array("i")  # world index each set belongs to
        self._sets_per_world = array("i")
        # Lazily built PostingsIndex; invalidated whenever the set arrays
        # grow or reset.
        self._postings: Optional[PostingsIndex] = None
        self._world_np = None  # numpy copy of _world_of, same lifetime
        # per-world dependency footprint (frozenset of node ids).
        self._footprints: List[FrozenSet[int]] = []

    # -- growth -----------------------------------------------------------------

    def ensure_worlds(self, count: int) -> "SketchStore":
        """Sample worlds up to ``count`` (no-op when already there)."""
        check_positive(count, "count")
        if not self.sampler.stochastic:
            count = min(count, 1)  # a deterministic sampler has one world
        if count <= self.worlds:
            return self
        if self.worlds:
            metrics().inc("sketch.store_doublings")
        for world in self._sample_range(range(self.worlds, count)):
            self._append(*world.packed())
        return self

    def _sample_range(self, indices) -> List:
        """Worlds for ``indices`` in order, via the pool when configured.

        Serial rounds and pool workers both sample through
        :func:`repro.sketch.kernels.sample_worlds` with the store's
        ``backend``, so the batched kernels serve every path. Falls back
        to serial sampling when there is no executor, the round resolves
        to one worker (always so for a single index), or the sampler is
        deterministic (one cached world — nothing to fan out).
        """
        from repro.exec.pool import resolve_workers
        from repro.sketch.kernels import sample_worlds

        executor = self._executor
        if (
            executor is None
            or resolve_workers(executor.workers, len(indices)) <= 1
            or not self.sampler.stochastic
        ):
            return sample_worlds(self.sampler, list(indices), backend=self.backend)
        return executor.map_items(
            _sampler_worker_setup,
            _sampler_worker_chunk,
            {"sampler": self.sampler.worker_payload(), "backend": self.backend},
            list(indices),
            graph=self.sampler.graph,
        )

    # -- incremental invalidation ------------------------------------------------

    def stale_worlds(self, touched: Iterable[int]) -> List[int]:
        """World indices an edge-update batch could have changed.

        A world is stale when its dependency footprint intersects
        ``touched`` (the endpoint ids of the mutated edges, what
        :meth:`~repro.graph.compact.IndexedDiGraph.apply_updates`
        returns); refreshing exactly these reproduces a from-scratch
        store bit for bit.
        """
        touched_set = frozenset(touched)
        if not touched_set or self.worlds == 0:
            return []
        return [
            world
            for world, footprint in enumerate(self._footprints)
            if footprint & touched_set
        ]

    def refresh(self, touched: Iterable[int]) -> Tuple[int, int]:
        """Resample the worlds invalidated by an edge-update batch.

        Worlds are pure functions of their replica index, so resampling
        exactly the stale indices (:meth:`stale_worlds`) on the mutated
        sampler graph and re-appending every other world unchanged, from
        slices of the current columns, rebuilds the arrays to what a
        from-scratch store on the mutated graph would hold, bit for bit.
        Resampling fans out over the configured pool like any growth
        round.

        Only freshly resampled worlds count toward the ``sketch.*``
        sampling metrics.

        Returns:
            ``(stale_world_count, invalidated_set_count)`` — the number
            of worlds resampled and the number of previously stored RR
            sets they held (what ``serve.rrsets.invalidated`` reports).
        """
        stale = self.stale_worlds(touched)
        if not stale:
            return 0, 0
        invalidated = sum(self._sets_per_world[world] for world in stale)
        resampled = dict(zip(stale, self._sample_range(stale)))
        roots, offsets, members = self._roots, self._offsets, self._members
        sets_per_world, footprints = self._sets_per_world, self._footprints
        self._reset()
        lo = 0
        for world, set_count in enumerate(sets_per_world):
            hi = lo + set_count
            fresh = resampled.get(world)
            if fresh is None:
                self._append(
                    roots[lo:hi],
                    offsets[lo : hi + 1],
                    members[offsets[lo] : offsets[hi]],
                    footprints[world],
                    count=False,
                )
            else:
                self._append(*fresh.packed())
            lo = hi
        registry = metrics()
        if registry.enabled:
            registry.counter("sketch.worlds_invalidated").add(len(stale))
            registry.counter("sketch.rrsets_invalidated").add(invalidated)
        return len(stale), invalidated

    def _append(
        self, roots, offsets, members, footprint, count: bool = True
    ) -> None:
        """Append one world from packed columns.

        Set ``i`` of the world is rooted at ``roots[i]`` and holds
        ``members[offsets[i] - offsets[0]:offsets[i + 1] - offsets[0]]``
        (a world's own :meth:`~repro.sketch.rrset.WorldSample.packed`
        offsets start at 0; :meth:`refresh` passes slices of the store's
        columns). ``count=False`` skips the sampling metrics, for a
        world :meth:`refresh` keeps: its sampling was counted when it
        was first drawn.
        """
        set_count = len(roots)
        shift = len(self._members) - offsets[0]
        self._roots.extend(roots)
        self._world_of.extend([self.worlds] * set_count)
        self._members.extend(members)
        self._offsets.extend([shift + end for end in offsets[1:]])
        self._sets_per_world.append(set_count)
        self._footprints.append(frozenset(footprint))
        self._postings = None
        self._world_np = None
        self.worlds += 1
        registry = metrics()
        if count and registry.enabled:
            sizes = registry.histogram("sketch.rrset_size")
            for position in range(set_count):
                sizes.observe(offsets[position + 1] - offsets[position])
            registry.counter("sketch.worlds_sampled").add(1)
            registry.counter("sketch.rrsets_sampled").add(set_count)
            registry.counter("sketch.rrset_members_stored").add(
                offsets[-1] - offsets[0]
            )
            registry.set_gauge("sketch.set_count", len(self._roots))

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the sampled worlds.

        Captures the flat arrays only — the sampler itself is rebuilt by
        the resuming run from its own configuration, and the inverted
        index is re-derived in :meth:`load_state`. Because worlds are
        pure functions of their index, a restored store is bit-identical
        to one that sampled the same rounds itself.
        """
        return {
            "worlds": self.worlds,
            "members": list(self._members),
            "offsets": list(self._offsets),
            "roots": list(self._roots),
            "world_of": list(self._world_of),
            "sets_per_world": list(self._sets_per_world),
            "footprints": [sorted(footprint) for footprint in self._footprints],
        }

    def load_state(self, state: Dict[str, object]) -> "SketchStore":
        """Restore a :meth:`state_dict` snapshot into this (empty) store.

        Restoration deliberately does **not** replay the ``sketch.*``
        metrics — the interrupted run already counted that sampling
        work; the resumed run only counts what it samples itself.

        Raises:
            ValidationError: the store is not empty, or ``state`` holds
                no ``footprints`` (every sampler records one, and
                :meth:`refresh` needs it).
        """
        if self.worlds or self._roots:
            raise ValidationError(
                "load_state requires an empty store; build a fresh one"
            )
        footprints = state.get("footprints")
        if footprints is None:
            raise ValidationError(
                "sketch state has no footprints; it cannot come from this "
                "library, so resample instead of resuming"
            )
        self.worlds = int(state["worlds"])
        self._members = array("i", (int(v) for v in state["members"]))
        self._offsets = array("q", (int(v) for v in state["offsets"]))
        self._roots = array("i", (int(v) for v in state["roots"]))
        self._world_of = array("i", (int(v) for v in state["world_of"]))
        self._sets_per_world = array(
            "i", (int(v) for v in state["sets_per_world"])
        )
        self._footprints = [frozenset(footprint) for footprint in footprints]
        self._postings = None
        self._world_np = None
        return self

    # -- inspection -------------------------------------------------------------

    @property
    def set_count(self) -> int:
        """Total RR sets across all worlds."""
        return len(self._roots)

    @property
    def at_risk_total(self) -> int:
        """Sum over worlds of the number of at-risk bridge ends."""
        return len(self._roots)

    def members(self, set_id: int) -> Tuple[int, ...]:
        """Sorted member ids of one RR set."""
        lo, hi = self._offsets[set_id], self._offsets[set_id + 1]
        return tuple(self._members[lo:hi])

    def root(self, set_id: int) -> int:
        """The bridge end RR set ``set_id`` was grown from."""
        return self._roots[set_id]

    def world_of(self, set_id: int) -> int:
        """The world index RR set ``set_id`` belongs to."""
        return self._world_of[set_id]

    def postings_index(self) -> PostingsIndex:
        """The store's :class:`PostingsIndex`: ``node -> set ids`` postings
        plus the ``set -> members`` columns they were inverted from.

        Built lazily — vectorized with NumPy when importable, by counting
        sort otherwise — and rebuilt from scratch after any append
        (appends batch, queries dominate). The NumPy columns are *copies*
        of the member storage, so the store's own arrays stay free to
        grow; without NumPy, ``members``/``offsets`` are the store's own
        columns. Each build sets the ``sketch.index_nodes`` gauge.
        """
        cached = self._postings
        if cached is not None:
            return cached
        try:
            import numpy as np_mod
        except ImportError:
            np_mod = None
        if np_mod is not None:
            members = np_mod.array(self._members, dtype=np_mod.int32)
            offsets = np_mod.array(self._offsets, dtype=np_mod.int64)
            set_ids = np_mod.repeat(
                np_mod.arange(len(self._roots), dtype=np_mod.int32),
                np_mod.diff(offsets),
            )
            # Stable sort by node: within one node the original order —
            # and therefore the set ids — stay ascending.
            order = np_mod.argsort(members, kind="stable")
            counts = np_mod.bincount(members)
            indptr = np_mod.zeros(len(counts) + 1, dtype=np_mod.int64)
            np_mod.cumsum(counts, out=indptr[1:])
            index = PostingsIndex(
                indptr,
                set_ids[order],
                members,
                offsets,
                np_mod,
                np_mod.flatnonzero(counts).tolist(),
            )
        else:
            top = max(self._members) + 1 if self._members else 0
            counts_list = [0] * top
            for node in self._members:
                counts_list[node] += 1
            indptr_arr = array("q", [0] * (top + 1))
            for node in range(top):
                indptr_arr[node + 1] = indptr_arr[node] + counts_list[node]
            cursor = list(indptr_arr[:top])
            postings_arr = array("i", bytes(4 * len(self._members)))
            for set_id in range(len(self._roots)):
                for position in range(self._offsets[set_id], self._offsets[set_id + 1]):
                    node = self._members[position]
                    postings_arr[cursor[node]] = set_id
                    cursor[node] += 1
            index = PostingsIndex(
                indptr_arr,
                postings_arr,
                self._members,
                self._offsets,
                None,
                [node for node in range(top) if counts_list[node]],
            )
        metrics().set_gauge("sketch.index_nodes", len(index.nodes))
        self._postings = index
        return index

    def sets_containing(self, node: int) -> Sequence[int]:
        """Ids of the RR sets containing ``node``, ascending (empty if none).

        Returns a flat slice of the CSR postings table (a NumPy array or
        machine array depending on availability), suitable for direct
        ``covered[ids]`` masking.
        """
        indptr, postings = self.postings_index()[:2]
        if 0 <= node < len(indptr) - 1:
            return postings[indptr[node] : indptr[node + 1]]
        return postings[:0]

    def nodes(self) -> List[int]:
        """All node ids appearing in at least one RR set, ascending.

        The list is the postings index's own (built once per index), so
        callers must not mutate it.
        """
        return self.postings_index().nodes

    # -- estimation -------------------------------------------------------------

    def _covered_set_ids(self, node_ids: Iterable[int]):
        """Distinct covered set ids: NumPy array, or a Python set."""
        index = self.postings_index()
        indptr, postings, np_mod = index.indptr, index.set_ids, index.np
        if np_mod is None:
            covered = set()
            for node in node_ids:
                if 0 <= node < len(indptr) - 1:
                    covered.update(postings[indptr[node] : indptr[node + 1]])
            return covered
        slices = [
            postings[indptr[node] : indptr[node + 1]]
            for node in node_ids
            if 0 <= node < len(indptr) - 1
        ]
        if not slices:
            return postings[:0]
        return _unique(np_mod, np_mod.concatenate(slices))

    def coverage_count(self, node_ids: Iterable[int]) -> int:
        """Number of distinct RR sets intersecting ``node_ids``."""
        return len(self._covered_set_ids(node_ids))

    def per_world_covered(self, node_ids: Iterable[int]) -> List[int]:
        """Per-world count of RR sets intersecting ``node_ids``."""
        covered = self._covered_set_ids(node_ids)
        if isinstance(covered, set):
            counts = [0] * self.worlds
            for set_id in covered:
                counts[self._world_of[set_id]] += 1
            return counts
        np_mod = self.postings_index().np
        if self._world_np is None:
            self._world_np = np_mod.array(self._world_of, dtype=np_mod.int32)
        return np_mod.bincount(
            self._world_np[covered], minlength=self.worlds
        ).tolist()

    def sigma(self, node_ids: Iterable[int]) -> float:
        """σ̂: mean covered (= saved) bridge ends per world."""
        if self.worlds == 0:
            raise ValidationError("store holds no worlds; call ensure_worlds first")
        return self.coverage_count(node_ids) / self.worlds

    def sigma_interval(
        self, node_ids: Iterable[int], delta: float = 0.05
    ) -> Tuple[float, float]:
        """``(σ̂, half_width)`` of a (1 - δ)-confidence interval.

        Uses the per-world covered counts' empirical variance with the
        sub-Gaussian critical value ``sqrt(2 ln(1/δ))``. Deterministic
        samplers have zero variance and return half-width 0.
        """
        check_fraction(delta, "delta", exclusive=True)
        samples = self.per_world_covered(node_ids)
        count = len(samples)
        if count == 0:
            raise ValidationError("store holds no worlds; call ensure_worlds first")
        mean = sum(samples) / count
        if count == 1:
            return mean, (0.0 if not self.sampler.stochastic else math.inf)
        variance = sum((value - mean) ** 2 for value in samples) / (count - 1)
        critical = math.sqrt(2.0 * math.log(1.0 / delta))
        return mean, critical * math.sqrt(variance / count)

    def precision_ok(
        self, node_ids: Iterable[int], epsilon: float = 0.1, delta: float = 0.05
    ) -> bool:
        """True when σ̂(node_ids) meets the (ε, δ) relative-precision target.

        The target half-width is ``ε · max(σ̂, 1)`` — relative for sets
        with real influence, with an absolute floor of ε so zero-gain
        sets terminate too.
        """
        check_fraction(epsilon, "epsilon", exclusive=True)
        if not self.sampler.stochastic:
            return self.worlds >= 1
        mean, half_width = self.sigma_interval(node_ids, delta)
        return half_width <= epsilon * max(mean, 1.0)

    def __repr__(self) -> str:
        return (
            f"SketchStore(sampler={self.sampler.name}, worlds={self.worlds}, "
            f"sets={self.set_count})"
        )

"""Batched RR-set sampling kernels: python / numpy backends, bit-identical.

The per-world samplers in :mod:`repro.sketch.rrset` are pure functions of
their replica index, so a batched kernel that races many worlds over the
graph's CSR arrays can replace them wholesale — provided it reproduces
every draw bit for bit. This module provides that kernel layer, mirroring
the :mod:`repro.kernels` registry the forward simulators use:

* ``python`` — the reference backend: a per-world loop over
  ``sampler.sample_world`` (always available, trivially identical);
* ``numpy`` — vectorized batched sampling on CSR arrays;
* ``auto`` — the fastest backend that loads, degrading silently.

**Bit-identity contract.** For every replica index, backends return the
same :class:`~repro.sketch.rrset.WorldSample` — same ``rr_sets`` (roots,
sorted members), same dependency ``footprint`` — as the per-world python
samplers. :class:`repro.sketch.store.SketchStore` therefore produces the
same arrays whichever backend samples, serially or across pool workers,
and :meth:`~repro.sketch.store.SketchStore.refresh` invalidation stays
exact. The differential suite (``tests/sketch/test_sketch_kernels.py``)
enforces the contract property-style.

How the numpy backend reproduces the python draws exactly:

* **One counter-keyed rule.** Every pick is
  :func:`repro.rng.pick` of (world key, node, step), which the
  python sampler evaluates per cell and this kernel evaluates on
  broadcast ``uint64`` blocks — the same function, so the same bits.
* **Rumor cascade.** ``record_cascade`` becomes one vectorized frontier
  step per horizon step: every reached node with out-neighbors draws
  its pick for the step at once, recording first arrivals and the first
  event step into every node (which is exactly ``min_in_timestamp`` at
  the bridge ends).
* **Choice rows** are drawn lazily, exactly when the reverse traversal
  first touches a node's in-row — one block expression for all the
  missing rows of a relaxation level — so the drawn-row set (part of
  the footprint) matches the python sampler's lazy set.
* **Reverse max-slack search** runs as a bucketed integer Dijkstra over
  an ``ends x nodes`` slack matrix: levels descend from the deadline,
  each level relaxes all (end, node) pairs finalised at that slack in
  one vectorized sweep (pick bitmasks dotted against powers of two;
  the highest permitted set bit recovered through ``frexp``). The
  fixpoint — and therefore membership and footprints — equals the
  per-end heap Dijkstra's.

Deterministic DOAM needs no randomness: the backend vectorizes the
forward BFS and the depth-bounded reverse balls, priming the sampler's
single-world cache so serve/refresh cache semantics are unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendUnavailableError, KernelError
from repro.rng import pick, world_keys
from repro.sketch.rrset import DOAMRRSampler, OPOAORRSampler, WorldSample

__all__ = [
    "SKETCH_BACKEND_AUTO",
    "available_sketch_backends",
    "register_sketch_backend",
    "resolve_sketch_backend",
    "sample_worlds",
    "PythonSketchKernel",
    "NumpySketchKernel",
]

#: Resolve to the fastest sketch backend that loads.
SKETCH_BACKEND_AUTO = "auto"

#: Preference order for ``auto`` resolution (fastest first).
_AUTO_ORDER = ("numpy", "python")

#: Pick bitmasks must stay exactly representable in float64 for the
#: ``frexp`` highest-bit trick; beyond this the kernel defers to python.
_MAX_FREXP_STEPS = 53

#: Slack-matrix budget (ends-per-block x node_count cells).
_BLOCK_CELLS = 4_000_000


def _unique(np_mod, values):
    """``np.unique`` of a 1-D integer array, by one sort and a mask.

    NumPy 2.4's hash-based ``unique`` costs ~10x a sort on the hundreds
    to thousands of ids one relaxation level or cascade step handles.
    """
    ordered = np_mod.sort(values)
    if ordered.size < 2:
        return ordered
    return ordered[np_mod.concatenate(([True], ordered[1:] != ordered[:-1]))]


class PythonSketchKernel:
    """Reference backend: the per-world samplers, one index at a time."""

    name = "python"

    def sample(self, sampler, indices: Sequence[int]) -> List[WorldSample]:
        """Worlds for ``indices`` in order (definitionally bit-identical)."""
        return [sampler.sample_world(int(index)) for index in indices]


class _GraphData:
    """CSR + reverse-CSR arrays for one graph snapshot."""

    __slots__ = (
        "csr_ref",
        "node_count",
        "indptr",
        "indices",
        "out_deg",
        "in_indptr",
        "in_indices",
        "in_deg",
        "in_heads",
    )


class _RowTable:
    """Lazily drawn choice rows, packed node -> row of neighbor picks."""

    __slots__ = ("_np", "_data", "_key", "_steps", "table", "position", "count")

    def __init__(self, np_mod, data: _GraphData, steps: int, key: int) -> None:
        self._np = np_mod
        self._data = data
        self._key = key
        self._steps = np_mod.arange(1, steps + 1, dtype=np_mod.uint64)
        self.table = np_mod.empty((0, steps), dtype=np_mod.int64)
        self.position = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        self.count = 0

    def ensure(self, nodes) -> None:
        """Draw, in one block, the rows of the unique ``nodes`` lacking one."""
        np_mod = self._np
        missing = nodes[self.position[nodes] < 0]
        if missing.size == 0:
            return
        needed = self.count + int(missing.size)
        if needed > len(self.table):
            capacity = max(256, 2 * len(self.table))
            while capacity < needed:
                capacity *= 2
            grown = np_mod.empty(
                (capacity, self.table.shape[1]), dtype=np_mod.int64
            )
            grown[: self.count] = self.table[: self.count]
            self.table = grown
        data = self._data
        picks = pick(
            self._key,
            missing.astype(np_mod.uint64)[:, None],
            self._steps,
            data.out_deg[missing].astype(np_mod.uint64)[:, None],
        )
        self.table[self.count : needed] = data.indices[
            data.indptr[missing][:, None] + picks.astype(np_mod.int64)
        ]
        self.position[missing] = np_mod.arange(self.count, needed)
        self.count = needed

    def rows_for(self, tails):
        return self.table[self.position[tails]]

    def drawn_nodes(self):
        return self._np.nonzero(self.position >= 0)[0]


class NumpySketchKernel:
    """Vectorized batched RR sampling on CSR arrays (bit-identical)."""

    name = "numpy"

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        # Keyed by id() of the graph's memoized CSR export; the strong
        # reference inside each entry keeps that id stable, and a mutated
        # graph re-exports a fresh CSR object so stale hits are impossible.
        self._graphs: Dict[int, _GraphData] = {}

    # -- graph arrays ------------------------------------------------------------

    def _graph_data(self, graph) -> _GraphData:
        np_mod = self._np
        csr = graph.csr()
        cached = self._graphs.get(id(csr))
        if cached is not None and cached.csr_ref is csr:
            return cached
        data = _GraphData()
        data.csr_ref = csr
        data.indptr = np_mod.asarray(csr.indptr, dtype=np_mod.int64)
        data.indices = np_mod.asarray(csr.indices, dtype=np_mod.int64)
        node_count = len(data.indptr) - 1
        data.node_count = node_count
        data.out_deg = np_mod.diff(data.indptr)
        edge_tails = np_mod.repeat(
            np_mod.arange(node_count, dtype=np_mod.int64), data.out_deg
        )
        order = np_mod.argsort(data.indices, kind="stable")
        data.in_indices = edge_tails[order]
        in_counts = np_mod.bincount(data.indices, minlength=node_count)
        data.in_indptr = np_mod.concatenate(
            (np_mod.zeros(1, dtype=np_mod.int64), np_mod.cumsum(in_counts))
        )
        data.in_deg = np_mod.diff(data.in_indptr)
        # Head node of every reverse-CSR edge position (for mask filling).
        data.in_heads = np_mod.repeat(
            np_mod.arange(node_count, dtype=np_mod.int64), data.in_deg
        )
        if len(self._graphs) >= 4:  # tiny LRU: serve holds few live graphs
            self._graphs.pop(next(iter(self._graphs)))
        self._graphs[id(csr)] = data
        return data

    @staticmethod
    def _ragged_positions(np_mod, starts, counts, total: int):
        """Flat edge positions of the ragged rows ``[starts, starts+counts)``."""
        offsets = np_mod.cumsum(counts) - counts
        return np_mod.repeat(starts - offsets, counts) + np_mod.arange(total)

    # -- OPOAO -------------------------------------------------------------------

    def _rumor_cascade(self, sampler, data: _GraphData, key: int):
        """Vectorized :func:`repro.diffusion.timestamps.record_cascade`.

        Only per-node minima matter downstream: the first arrival step
        (which fixes each step's drawing snapshot) and the first event
        step into a node (the min preserved in-timestamp at that node).
        Every node reached before a step with out-neighbors draws its
        pick for that step; picks are independent cells of the rule, so
        one array expression per step replaces the recorder's loop.
        """
        np_mod = self._np
        arrival = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        first_event = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        reached = np_mod.array(sampler.rumor_ids, dtype=np_mod.int64)
        arrival[reached] = 0
        indptr, indices, out_deg = data.indptr, data.indices, data.out_deg
        active = reached[out_deg[reached] > 0]
        for step in range(1, sampler.steps + 1):
            if active.size == 0:
                break  # no node can ever draw again
            picks = pick(
                key,
                active.astype(np_mod.uint64),
                step,
                out_deg[active].astype(np_mod.uint64),
            )
            heads = indices[indptr[active] + picks.astype(np_mod.int64)]
            first_event[heads[first_event[heads] < 0]] = step
            fresh = _unique(np_mod, heads[arrival[heads] < 0])
            if fresh.size:
                arrival[fresh] = step
                active = np_mod.concatenate((active, fresh[out_deg[fresh] > 0]))
        return arrival, first_event

    def _relax_block(
        self,
        data: _GraphData,
        steps: int,
        block: List[Tuple[int, int]],
        row_table: _RowTable,
        edge_masks,
        edge_done,
    ):
        """Bucketed integer Dijkstra over the block's slack matrix.

        ``S[e, x]`` is the latest arrival step at ``x`` that still relays
        to the block's ``e``-th end by its deadline. Levels descend, so
        each (end, node) pair is expanded exactly once, at its final
        slack — matching the per-end heap Dijkstra's pop set, and in
        particular drawing choice rows for exactly the same tails.

        ``edge_masks``/``edge_done`` cache the pick bitmask per
        reverse-CSR edge position across ends and blocks of one world
        (the mask depends only on the tail's row and the head), so each
        edge's row comparison runs once per world, not once per end.
        """
        np_mod = self._np
        node_count = data.node_count
        slack = np_mod.full((len(block), node_count), -1, dtype=np_mod.int64)
        flat = slack.ravel()
        top = max(deadline for _end, deadline in block)
        buckets: List[List[Any]] = [[] for _ in range(top + 1)]
        for position, (end, deadline) in enumerate(block):
            slack[position, end] = deadline
            buckets[deadline].append(
                np_mod.array([position * node_count + end], dtype=np_mod.int64)
            )
        pow2 = np_mod.left_shift(
            np_mod.int64(1), np_mod.arange(steps, dtype=np_mod.int64)
        )
        in_indptr, in_indices, in_deg = (
            data.in_indptr,
            data.in_indices,
            data.in_deg,
        )
        for level in range(top, 0, -1):
            entries = buckets[level]
            if not entries:
                continue
            keys = entries[0] if len(entries) == 1 else np_mod.concatenate(entries)
            keys = keys[flat[keys] == level]  # drop stale (improved) pairs
            if keys.size == 0:
                continue
            keys = _unique(np_mod, keys)
            nodes = keys % node_count
            counts = in_deg[nodes]
            total = int(counts.sum())
            if total == 0:
                continue
            positions = self._ragged_positions(
                np_mod, in_indptr[nodes], counts, total
            )
            tails = in_indices[positions]
            fresh = positions[~edge_done[positions]]
            if fresh.size:
                fresh = _unique(np_mod, fresh)
                fresh_tails = in_indices[fresh]
                row_table.ensure(_unique(np_mod, fresh_tails))
                rows = row_table.rows_for(fresh_tails)
                # Bit t-1 set <=> the tail picks this head at step t.
                edge_masks[fresh] = (
                    (rows == data.in_heads[fresh][:, None]) * pow2
                ).sum(axis=1)
                edge_done[fresh] = True
            end_base = np_mod.repeat(keys - nodes, counts)  # end row * n
            # The highest set bit at or below min(level, steps) is the
            # latest usable pick; its index is the candidate slack.
            allowed = edge_masks[positions] & ((1 << min(level, steps)) - 1)
            _mant, exponents = np_mod.frexp(allowed.astype(np_mod.float64))
            candidates = exponents.astype(np_mod.int64) - 1
            targets = end_base + tails
            improved = candidates > flat[targets]
            if not improved.any():
                continue
            targets = targets[improved]
            np_mod.maximum.at(flat, targets, candidates[improved])
            final = flat[targets]
            for value in _unique(np_mod, final).tolist():
                buckets[value].append(targets[final == value])
        return slack

    def _opoao_world(self, sampler, data: _GraphData, index: int) -> WorldSample:
        np_mod = self._np
        rumor_key, choices_key = world_keys(sampler.rng.seed, index)
        arrival, first_event = self._rumor_cascade(sampler, data, rumor_key)
        at_risk = [
            (end, int(first_event[end]))
            for end in sampler.end_ids
            if first_event[end] >= 0
        ]
        row_table = _RowTable(np_mod, data, sampler.steps, choices_key)
        rr_sets: List[Tuple[int, Tuple[int, ...]]] = []
        if at_risk:
            edge_count = len(data.in_indices)
            edge_masks = np_mod.zeros(edge_count, dtype=np_mod.int64)
            edge_done = np_mod.zeros(edge_count, dtype=bool)
            block_size = max(1, _BLOCK_CELLS // max(data.node_count, 1))
            for start in range(0, len(at_risk), block_size):
                block = at_risk[start : start + block_size]
                slack = self._relax_block(
                    data,
                    sampler.steps,
                    block,
                    row_table,
                    edge_masks,
                    edge_done,
                )
                for position, (end, _deadline) in enumerate(block):
                    members = np_mod.nonzero(slack[position] >= 0)[0]
                    rr_sets.append((end, tuple(members.tolist())))
        footprint = set(np_mod.nonzero(arrival >= 0)[0].tolist())
        footprint.update(row_table.drawn_nodes().tolist())
        footprint.update(sampler.end_ids)
        for _end, members in rr_sets:
            footprint.update(members)
        return WorldSample(index, rr_sets, footprint=sorted(footprint))

    # -- DOAM --------------------------------------------------------------------

    def _doam_cached(self, sampler) -> Tuple[List, Tuple[int, ...]]:
        """The single DOAM world's ``(rr_sets, footprint)`` payload."""
        np_mod = self._np
        data = self._graph_data(sampler.graph)
        distance = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        frontier = np_mod.array(sampler.rumor_ids, dtype=np_mod.int64)
        distance[frontier] = 0
        for hop in range(sampler.max_hops):
            counts = data.out_deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            positions = self._ragged_positions(
                np_mod, data.indptr[frontier], counts, total
            )
            heads = _unique(np_mod, data.indices[positions])
            heads = heads[distance[heads] < 0]
            if heads.size == 0:
                break
            distance[heads] = hop + 1
            frontier = heads
        stamp = np_mod.full(data.node_count, -1, dtype=np_mod.int64)
        rr_sets: List[Tuple[int, Tuple[int, ...]]] = []
        for mark, end in enumerate(sampler.end_ids):
            if distance[end] < 0:
                continue  # the rumor never arrives; nothing to save
            members = self._reverse_ball(
                data, stamp, mark, end, int(distance[end])
            )
            rr_sets.append((end, tuple(members)))
        footprint = set(np_mod.nonzero(distance >= 0)[0].tolist())
        footprint.update(sampler.end_ids)
        for _end, members in rr_sets:
            footprint.update(members)
        return rr_sets, tuple(sorted(footprint))

    def _reverse_ball(
        self, data: _GraphData, stamp, mark: int, end: int, depth: int
    ) -> List[int]:
        """Sorted node ids within ``depth`` reverse hops of ``end``."""
        np_mod = self._np
        stamp[end] = mark
        layers = [np_mod.array([end], dtype=np_mod.int64)]
        frontier = layers[0]
        for _hop in range(depth):
            counts = data.in_deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            positions = self._ragged_positions(
                np_mod, data.in_indptr[frontier], counts, total
            )
            tails = _unique(np_mod, data.in_indices[positions])
            tails = tails[stamp[tails] != mark]
            if tails.size == 0:
                break
            stamp[tails] = mark
            layers.append(tails)
            frontier = tails
        members = np_mod.concatenate(layers)
        members.sort()
        return members.tolist()

    # -- dispatch ----------------------------------------------------------------

    def sample(self, sampler, indices: Sequence[int]) -> List[WorldSample]:
        """Worlds for ``indices`` in order, bit-identical to python.

        Unknown sampler types — and OPOAO horizons past the float64-exact
        bitmask range — defer to the per-world reference path.
        """
        index_list = [int(index) for index in indices]
        if isinstance(sampler, DOAMRRSampler):
            if sampler._cached is None:
                sampler._cached = self._doam_cached(sampler)
            return [sampler.sample_world(index) for index in index_list]
        if (
            isinstance(sampler, OPOAORRSampler)
            and sampler.steps <= _MAX_FREXP_STEPS
        ):
            data = self._graph_data(sampler.graph)
            return [
                self._opoao_world(sampler, data, index) for index in index_list
            ]
        return [sampler.sample_world(index) for index in index_list]


# -- registry --------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], Any]] = {}
_INSTANCES: Dict[str, Any] = {}


def register_sketch_backend(name: str, factory: Callable[[], Any]) -> None:
    """Register (or replace) a sketch-kernel factory under ``name``."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


register_sketch_backend("python", PythonSketchKernel)
register_sketch_backend("numpy", NumpySketchKernel)


def resolve_sketch_backend(name: Optional[str] = SKETCH_BACKEND_AUTO):
    """The sketch kernel registered under ``name`` (``None`` == ``"auto"``).

    Raises:
        BackendUnavailableError: the backend exists but its dependency
            is missing (never for ``"auto"``, which falls back).
        KernelError: no backend of that name exists.
    """
    if name is None or name == SKETCH_BACKEND_AUTO:
        for candidate in _AUTO_ORDER:
            try:
                return resolve_sketch_backend(candidate)
            except BackendUnavailableError:
                continue
        raise KernelError("no sketch backend could be loaded")  # unreachable
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KernelError(
            f"unknown sketch backend {name!r}; registered: {sorted(_FACTORIES)}"
        )
    try:
        instance = factory()
    except ImportError as error:
        raise BackendUnavailableError(
            f"sketch backend {name!r} needs an optional dependency "
            f"({error}); install the 'perf' extra: pip install repro-lcrb[perf]"
        ) from error
    _INSTANCES[name] = instance
    return instance


def available_sketch_backends() -> List[str]:
    """Names of sketch backends that load here, in registration order."""
    names: List[str] = []
    for name in _FACTORIES:
        try:
            resolve_sketch_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names


def sample_worlds(
    sampler, indices: Sequence[int], backend: Optional[str] = None
) -> List[WorldSample]:
    """Sample ``indices`` through the named (or auto) sketch backend."""
    return resolve_sketch_backend(backend).sample(sampler, list(indices))

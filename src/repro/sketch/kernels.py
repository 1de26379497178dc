"""Batched RR-set sampling: :func:`sample_worlds`, the one way to sample.

The per-world samplers in :mod:`repro.sketch.rrset` are pure functions of
their replica index, so a batched kernel that races many worlds over the
graph's CSR arrays can replace them wholesale — provided it reproduces
every draw bit for bit. :func:`sample_worlds` resolves its ``backend``
through the one backend registry,
:func:`repro.kernels.registry.resolve_backend` (``"python"``,
``"numpy"``, or ``"auto"``/``None`` for the fastest that loads, with
the same :class:`~repro.errors.BackendUnavailableError` and ``perf``
hint). When it resolves to ``numpy``, OPOAO worlds with a horizon of
at most 53 steps go to :class:`NumpySketchKernel`; every other case
loops ``sampler.sample_world`` over the indices.

**Bit-identity contract.** For every replica index, both paths return
the same :class:`~repro.sketch.rrset.WorldSample` — same ``rr_sets``
(roots, sorted members), same dependency ``footprint``.
:class:`repro.sketch.store.SketchStore` therefore produces the same
arrays whichever backend samples, serially or across pool workers, and
:meth:`~repro.sketch.store.SketchStore.refresh` invalidation stays
exact. The differential suite (``tests/sketch/test_sketch_kernels.py``)
enforces the contract property-style.

How the numpy kernel reproduces the python draws exactly:

* **One counter-keyed rule.** Every pick is
  :func:`repro.rng.pick` of (world key, node, step), which the
  python sampler evaluates per cell and this kernel evaluates on
  broadcast ``uint64`` blocks — the same function, so the same bits.
* **Blocks of worlds.** One pass samples up to ``_BLOCK_WORLDS``
  worlds. Node ``x`` of the block's world ``w`` has the flat id
  ``w * n + x`` and reverse-CSR edge ``p`` the flat id ``w * E + p``,
  so each array expression below advances every world of the block.
  A world keys only its own cells, so it is the same in any block.
* **Rumor cascade.** ``record_cascade`` becomes one vectorized frontier
  step per horizon step for the whole block: every reached node with
  out-neighbors draws its pick for the step at once, recording first
  arrivals and the first event step into every node (which is exactly
  ``min_in_timestamp`` at the bridge ends).
* **Choice rows** are drawn lazily, exactly when the reverse search
  first relaxes one of a (world, tail)'s out-edges — one block
  expression for all the missing rows of a relaxation level — so the
  drawn-row set (part of the footprint) matches the python sampler's
  lazy set. Each drawn row sets its pick bits on its own out-edges,
  one fancy-indexed ``|=`` per step column: rows own disjoint out-edge
  ranges, so no position repeats within a column.
* **Reverse max-slack search** runs as a bucketed integer Dijkstra over
  an int8 slack matrix with one row per (world, at-risk end) of the
  block, split into matrices of at most ``_BLOCK_CELLS`` cells: levels
  descend from the deadline, each level relaxes all (row, node) pairs
  finalised at that slack in one vectorized sweep (the highest
  permitted pick bit of each in-edge recovered through ``frexp``). The
  fixpoint — and therefore membership and footprints — equals the
  per-end heap Dijkstra's.
* **Packed results.** Members, offsets and footprints leave the block
  as flat arrays, and each world's slices become its
  :class:`~repro.sketch.rrset.WorldSample` through
  :meth:`~repro.sketch.rrset.WorldSample.from_packed`, with no per-set
  tuples.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

from repro.kernels.registry import resolve_backend
from repro.rng import pick, world_keys
from repro.sketch.rrset import OPOAORRSampler, WorldSample

__all__ = ["sample_worlds", "NumpySketchKernel"]

#: Pick bitmasks must stay exactly representable in float64 for the
#: ``frexp`` highest-bit trick; beyond this the kernel defers to python.
_MAX_FREXP_STEPS = 53

#: Slack-matrix budget (int8 cells: (world, end) rows x node_count).
_BLOCK_CELLS = 4_000_000

#: OPOAO worlds sampled together in one pass. Each world of a block
#: holds a node-length and an edge-length array for the whole pass;
#: eight worlds share each NumPy call's overhead at a few MB.
_BLOCK_WORLDS = 8


def _unique(np_mod, values):
    """``np.unique`` of a 1-D integer array, by one sort and a mask.

    NumPy 2.4's hash-based ``unique`` costs ~10x a sort on the hundreds
    to thousands of ids one relaxation level or cascade step handles.
    """
    ordered = np_mod.sort(values)
    if ordered.size < 2:
        return ordered
    return ordered[np_mod.concatenate(([True], ordered[1:] != ordered[:-1]))]


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
        "out_to_in",
    )


class _ChoiceBits:
    """The choice tables of a block of worlds, as per-edge pick bits.

    Bit ``t - 1`` of ``masks[w * E + p]`` is set when, in the block's
    world ``w``, the tail of reverse-CSR edge ``p`` picks that edge's
    head at step ``t``. A (world, tail) row is drawn when the search
    first relaxes one of the tail's out-edges, so the drawn rows are
    the python sampler's lazy set, and each drawn row scatters its bits
    straight onto its own out-edges.
    """

    __slots__ = ("_np", "_data", "_keys", "_steps", "drawn", "masks")

    def __init__(self, np_mod, data: _GraphData, steps: int, keys) -> None:
        self._np = np_mod
        self._data = data
        self._keys = keys
        self._steps = np_mod.arange(1, steps + 1, dtype=np_mod.uint64)
        self.drawn = np_mod.zeros(len(keys) * data.node_count, dtype=bool)
        self.masks = np_mod.zeros(
            len(keys) * len(data.in_indices), dtype=np_mod.int64
        )

    def ensure(self, flat_tails) -> None:
        """Draw, in one block, the rows of the ``w * n + tail`` ids lacking one."""
        np_mod = self._np
        missing = flat_tails[~self.drawn[flat_tails]]
        if missing.size == 0:
            return
        missing = _unique(np_mod, missing)
        self.drawn[missing] = True
        data = self._data
        world = missing // data.node_count
        tails = missing - world * data.node_count
        picks = pick(
            self._keys[world][:, None],
            tails.astype(np_mod.uint64)[:, None],
            self._steps,
            data.out_deg[tails].astype(np_mod.uint64)[:, None],
        )
        edges = data.out_to_in[
            data.indptr[tails][:, None] + picks.astype(np_mod.int64)
        ]
        edges += (world * len(data.in_indices))[:, None]
        # Rows own disjoint out-edge ranges, so no position repeats
        # within a step column and a fancy-indexed ``|=`` is exact.
        masks = self.masks
        for column in range(edges.shape[1]):
            masks[edges[:, column]] |= 1 << column


class NumpySketchKernel:
    """Vectorized batched OPOAO RR sampling on CSR arrays (bit-identical)."""

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
        # Reverse-CSR position of every out-CSR edge position.
        data.out_to_in = np_mod.empty_like(order)
        data.out_to_in[order] = np_mod.arange(len(order))
        in_counts = np_mod.bincount(data.indices, minlength=node_count)
        data.in_indptr = np_mod.concatenate(
            (np_mod.zeros(1, dtype=np_mod.int64), np_mod.cumsum(in_counts))
        )
        data.in_deg = np_mod.diff(data.in_indptr)
        if len(self._graphs) >= 4:  # tiny LRU: serve holds few live graphs
            self._graphs.pop(next(iter(self._graphs)))
        self._graphs[id(csr)] = data
        return data

    # -- OPOAO -------------------------------------------------------------------

    def _rumor_cascade(self, sampler, data: _GraphData, keys):
        """Vectorized :func:`repro.diffusion.timestamps.record_cascade`
        for a block of worlds, one rumor key each.

        Node ``x`` of the block's world ``w`` has the flat id
        ``w * n + x``. Only per-node facts matter downstream: whether
        the rumor reaches a node (its out-row drives the cascade) and
        the first event step into it (the min preserved in-timestamp at
        the bridge ends). Every node reached before a step with
        out-neighbors draws its pick for that step; picks are
        independent cells of the rule, so one array expression per step
        advances every world of the block.
        """
        np_mod = self._np
        node_count = data.node_count
        indptr, indices, out_deg = data.indptr, data.indices, data.out_deg
        reached = np_mod.zeros(len(keys) * node_count, dtype=bool)
        first_event = np_mod.full(len(keys) * node_count, -1, dtype=np_mod.int8)
        seeds = np_mod.array(sampler.rumor_ids, dtype=np_mod.int64)
        active = (
            np_mod.arange(len(keys), dtype=np_mod.int64)[:, None] * node_count
            + seeds
        ).ravel()
        reached[active] = True
        active = active[np_mod.tile(out_deg[seeds] > 0, len(keys))]
        for step in range(1, sampler.steps + 1):
            if active.size == 0:
                break  # no node can ever draw again
            world = active // node_count
            base = world * node_count
            nodes = active - base
            picks = pick(
                keys[world],
                nodes.astype(np_mod.uint64),
                step,
                out_deg[nodes].astype(np_mod.uint64),
            )
            heads = indices[indptr[nodes] + picks.astype(np_mod.int64)] + base
            first_event[heads[first_event[heads] < 0]] = step
            fresh = _unique(np_mod, heads[~reached[heads]])
            if fresh.size:
                reached[fresh] = True
                movers = out_deg[fresh % node_count] > 0
                active = np_mod.concatenate((active, fresh[movers]))
        return reached, first_event

    def _max_slack(self, data: _GraphData, worlds, ends, deadlines, bits: _ChoiceBits):
        """Bucketed integer Dijkstra over one int8 slack matrix.

        Row ``r`` searches from the block's world ``worlds[r]`` and its
        bridge end ``ends[r]``: ``S[r, x]`` is the latest arrival step
        at ``x`` that still relays to that end by ``deadlines[r]``.
        Levels descend, so each (row, node) pair is expanded exactly
        once, at its final slack — the per-end heap Dijkstra's pop set,
        which relaxes (and draws rows for) the same tails. One level
        relaxes every row of the matrix in one sweep.
        """
        np_mod = self._np
        node_count = data.node_count
        edge_count = len(data.in_indices)
        in_indptr, in_indices, in_deg = (
            data.in_indptr,
            data.in_indices,
            data.in_deg,
        )
        slack = np_mod.full((len(ends), node_count), -1, dtype=np_mod.int8)
        flat = slack.ravel()
        starts = np_mod.arange(len(ends), dtype=np_mod.int64) * node_count + ends
        flat[starts] = deadlines
        top = int(deadlines.max())
        buckets: List[List[Any]] = [[] for _ in range(top + 1)]
        for value in _unique(np_mod, deadlines).tolist():
            buckets[value].append(starts[deadlines == value])
        for level in range(top, 0, -1):
            entries = buckets[level]
            if not entries:
                continue
            keys = entries[0] if len(entries) == 1 else np_mod.concatenate(entries)
            keys = keys[flat[keys] == level]  # drop stale (improved) pairs
            if keys.size == 0:
                continue
            keys = _unique(np_mod, keys)
            rows = keys // node_count
            row_base = rows * node_count
            nodes = keys - row_base
            counts = in_deg[nodes]
            total = int(counts.sum())
            if total == 0:
                continue
            # Flat in-edge positions of the ragged rows of ``nodes``.
            positions = np_mod.repeat(
                in_indptr[nodes] - (np_mod.cumsum(counts) - counts), counts
            ) + np_mod.arange(total)
            tails = in_indices[positions]
            world = np_mod.repeat(worlds[rows], counts)
            bits.ensure(world * node_count + tails)
            world *= edge_count
            world += positions  # now the block's flat edge ids
            # Bits of steps 1..level (a level never passes the horizon):
            # the highest set one is the latest usable pick, and its index
            # is the candidate slack. In-place steps keep a level's arrays
            # few, since one level spans every row of the matrix.
            allowed = bits.masks[world]
            allowed &= (1 << level) - 1
            floats = allowed.astype(np_mod.float64)
            _mant, exponents = np_mod.frexp(floats, out=(floats, None))
            candidates = exponents.astype(np_mod.int8) - 1
            targets = np_mod.repeat(row_base, counts)
            targets += tails
            improved = candidates > flat[targets]
            if not improved.any():
                continue
            targets = targets[improved]
            np_mod.maximum.at(flat, targets, candidates[improved])
            final = flat[targets]
            for value in _unique(np_mod, final).tolist():
                buckets[value].append(targets[final == value])
        return slack

    def _opoao_block(
        self, sampler, data: _GraphData, block: List[int]
    ) -> List[WorldSample]:
        """The worlds of ``block`` (replica indices), sampled together."""
        np_mod = self._np
        node_count = data.node_count
        keys = [world_keys(sampler.rng.seed, index) for index in block]
        reached, first_event = self._rumor_cascade(
            sampler,
            data,
            np_mod.array([rumor for rumor, _ in keys], dtype=np_mod.uint64),
        )
        bits = _ChoiceBits(
            np_mod,
            data,
            sampler.steps,
            np_mod.array([choices for _, choices in keys], dtype=np_mod.uint64),
        )
        end_ids = np_mod.array(sampler.end_ids, dtype=np_mod.int64)
        deadlines = first_event.reshape(len(block), node_count)[:, end_ids]
        # One row per (world, at-risk end), world-major with ends ascending:
        # the order of each world's rr_sets.
        row_world, end_column = np_mod.nonzero(deadlines >= 0)
        row_deadline = deadlines[row_world, end_column]
        row_end = end_ids[end_column]
        set_of = [np_mod.zeros(0, dtype=np_mod.int64)]
        members = [np_mod.zeros(0, dtype=np_mod.int64)]
        rows_per_slack = max(1, _BLOCK_CELLS // max(node_count, 1))
        for start in range(0, len(row_end), rows_per_slack):
            stop = start + rows_per_slack
            slack = self._max_slack(
                data,
                row_world[start:stop],
                row_end[start:stop],
                row_deadline[start:stop],
                bits,
            )
            rows, nodes = np_mod.nonzero(slack >= 0)
            set_of.append(rows + start)
            members.append(nodes)
        set_ids = np_mod.concatenate(set_of)
        member_ids = np_mod.concatenate(members)
        offsets = np_mod.zeros(len(row_end) + 1, dtype=np_mod.longlong)
        np_mod.cumsum(
            np_mod.bincount(set_ids, minlength=len(row_end)), out=offsets[1:]
        )
        footprint = reached | bits.drawn
        footprint[row_world[set_ids] * node_count + member_ids] = True
        footprint = footprint.reshape(len(block), node_count)
        footprint[:, end_ids] = True
        foot_world, foot_nodes = np_mod.nonzero(footprint)
        bounds = np_mod.arange(len(block) + 1)
        row_bounds = np_mod.searchsorted(row_world, bounds).tolist()
        foot_bounds = np_mod.searchsorted(foot_world, bounds).tolist()
        roots = row_end.astype(np_mod.intc)
        member_ids = member_ids.astype(np_mod.intc)
        foot_nodes = foot_nodes.astype(np_mod.intc)
        samples: List[WorldSample] = []
        for position, index in enumerate(block):
            lo, hi = row_bounds[position], row_bounds[position + 1]
            first, last = int(offsets[lo]), int(offsets[hi])
            samples.append(
                WorldSample.from_packed(
                    index,
                    array("i", roots[lo:hi].tobytes()),
                    array("q", (offsets[lo : hi + 1] - first).tobytes()),
                    array("i", member_ids[first:last].tobytes()),
                    array(
                        "i",
                        foot_nodes[
                            foot_bounds[position] : foot_bounds[position + 1]
                        ].tobytes(),
                    ),
                )
            )
        return samples

    def sample(
        self, sampler: OPOAORRSampler, indices: List[int]
    ) -> List[WorldSample]:
        """OPOAO worlds for ``indices`` in order, ``_BLOCK_WORLDS`` per pass."""
        data = self._graph_data(sampler.graph)
        samples: List[WorldSample] = []
        for start in range(0, len(indices), _BLOCK_WORLDS):
            block = indices[start : start + _BLOCK_WORLDS]
            samples.extend(self._opoao_block(sampler, data, block))
        return samples


@lru_cache(maxsize=None)
def _numpy_kernel() -> NumpySketchKernel:
    """The one kernel, built on first use (it caches per-graph arrays)."""
    return NumpySketchKernel()


def sample_worlds(
    sampler, indices: Sequence[int], backend: Optional[str] = None
) -> List[WorldSample]:
    """Worlds for ``indices`` in order, bit-identical on every backend.

    ``backend`` resolves through
    :func:`repro.kernels.registry.resolve_backend` (``None`` ==
    ``"auto"``). On ``numpy``, an OPOAO sampler whose horizon fits the
    ``frexp`` range goes to :class:`NumpySketchKernel`; every other
    case runs ``sampler.sample_world(i)`` for each index.

    Raises:
        BackendUnavailableError: ``backend`` names an engine whose
            dependency is missing (never for ``"auto"``).
        KernelError: no backend of that name exists.
    """
    index_list = [int(index) for index in indices]
    if (
        resolve_backend(backend).name == "numpy"
        and isinstance(sampler, OPOAORRSampler)
        and sampler.steps <= _MAX_FREXP_STEPS
    ):
        return _numpy_kernel().sample(sampler, index_list)
    return [sampler.sample_world(index) for index in index_list]

"""Vectorized NumPy kernel backend.

Runs all B worlds of a batch simultaneously: node states live in a
``B × N`` int8 matrix and each hop processes every world's frontier in a
handful of array operations. Everything stays *sparse*: IC/LT/DOAM track
frontiers as ``world * n + node`` keys (IC/DOAM additionally race over a
flattened live adjacency built once per batch), and OPOAO tracks only
its *live* pickers — active nodes that still have an inactive
out-neighbor — via reverse-adjacency bookkeeping, so per-hop cost
follows the work actually left in each world rather than ``B × N``. No
per-world Python loop survives on the hot path, which is where the
sigma-throughput win over the reference backend comes from.

Bit-identical equivalence with the pure-Python backend on the same
:class:`~repro.kernels.worlds.WorldBatch` is maintained by matching its
operation *order* wherever floats accumulate: LT in-weights are added
with unbuffered ``np.add.at`` in (world, node, edge-position) order —
exactly the reference backend's loop order — and OPOAO pick indices use
the same ``floor(r * d_out)`` IEEE arithmetic. Worlds come from
:func:`repro.kernels.worlds.sample_worlds`, the one sampler both
backends share, so the two engines race identical worlds.

This module imports ``numpy`` at import time; it is only loaded through
:mod:`repro.kernels.registry`, which converts an ``ImportError`` into
:class:`~repro.errors.BackendUnavailableError` (install the ``perf``
extra) and can fall back to the reference backend.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.diffusion.base import INACTIVE, CascadeSet
from repro.graph.compact import CSRArrays, IndexedDiGraph
from repro.kernels.base import BatchOutcome, KernelBackend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch
from repro.sketch.kernels import _unique

__all__ = ["NumpyKernelBackend"]

#: Graph-array cache capacity (distinct graphs kept vectorized at once).
_CACHE_LIMIT = 8

#: Largest ``batch * node_count`` the flattened live adjacency may span
#: (its indptr takes 8 bytes per key; 2^25 keys ~ 256 MiB of index).
_MAX_FLAT_KEYS = 1 << 25

_EMPTY = np.zeros(0, dtype=np.int64)


class _GraphArrays:
    """NumPy views of one graph's CSR snapshot, built once per graph."""

    __slots__ = (
        "indptr",
        "indices",
        "out_deg",
        "inv_indeg",
        "edge_tails",
        "in_indptr",
        "in_tails",
    )

    def __init__(self, graph: IndexedDiGraph) -> None:
        csr = graph.csr()
        n = csr.node_count
        self.indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.out_deg = self.indptr[1:] - self.indptr[:-1]
        in_deg = np.bincount(self.indices, minlength=n) if n else np.zeros(0)
        self.inv_indeg = 1.0 / np.maximum(1, in_deg).astype(np.float64)
        self.edge_tails = np.repeat(
            np.arange(n, dtype=np.int64), self.out_deg
        )
        # Reverse adjacency (in-neighbors per node), for OPOAO's
        # inactive-out-neighbor accounting.
        order = np.argsort(self.indices, kind="stable")
        self.in_tails = self.edge_tails[order]
        self.in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_deg, out=self.in_indptr[1:])


class NumpyKernelBackend(KernelBackend):
    """Batched bit-matrix diffusion kernels over CSR arrays."""

    name = "numpy"

    def __init__(self) -> None:
        self._cache: Dict[int, Tuple[CSRArrays, _GraphArrays]] = {}

    def _arrays(self, graph: IndexedDiGraph) -> _GraphArrays:
        # Keyed by the graph's CSR export, not the graph: an in-place
        # update (IndexedDiGraph.apply_updates) re-exports a fresh CSR
        # object, so a mutated graph never hits stale arrays. The strong
        # reference keeps the key's id from being reused while cached.
        csr = graph.csr()
        key = id(csr)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is csr:
            return hit[1]
        arrays = _GraphArrays(graph)
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = (csr, arrays)
        return arrays

    # -- the batched race -------------------------------------------------------

    def _run(
        self,
        graph: IndexedDiGraph,
        spec: KernelSpec,
        worlds: WorldBatch,
        seeds: CascadeSet,
        max_hops: int,
    ) -> BatchOutcome:
        arrays = self._arrays(graph)
        batch = worlds.batch
        n = graph.node_count
        states = np.zeros((batch, n), dtype=np.int8)
        for cascade, members in enumerate(seeds.cascades):
            ids = sorted(members)
            if ids:
                states[:, ids] = cascade + 1
        if spec.kind in ("ic", "doam"):
            live = None
            if spec.kind == "ic":
                live = _batch_array(worlds, "live", np.bool_)
            return self._race(arrays, states, seeds, live, max_hops, worlds)
        if spec.kind == "lt":
            thresholds = _batch_array(worlds, "thresholds", np.float64)
            return self._lt(arrays, states, seeds, thresholds, max_hops)
        picks = _batch_array(worlds, "picks", np.float64)
        return self._opoao(arrays, states, seeds, picks, max_hops)

    def _race(
        self, arrays, states, seeds, live, max_hops, worlds=None
    ) -> BatchOutcome:
        """IC (live-edge mask) and DOAM (``live=None``): BFS race, priority ties.

        The race runs on a *flattened* live adjacency — one virtual graph
        of ``batch * n`` nodes whose node ``w * n + u`` carries world
        ``w``'s live out-edges of ``u`` — built once per world batch and
        cached, so every σ̂ replay skips the per-edge coin lookups
        entirely and BFS expansion only ever touches live edges.
        """
        batch, n = states.shape
        # The flattened adjacency needs O(batch * n) index space; past the
        # cap, fall back to per-hop live-mask filtering instead.
        flat = None
        if batch * n <= _MAX_FLAT_KEYS:
            flat = self._flat_adjacency(worlds, live, arrays, batch, n)
        flat_states = states.reshape(-1)
        order = seeds.priority
        fronts = [_seed_keys(members, batch, n) for members in seeds.cascades]
        counts = [
            np.full(batch, len(members), dtype=np.int64)
            for members in seeds.cascades
        ]
        planes = [[count.copy()] for count in counts]
        for _hop in range(max_hops):
            if all(front.size == 0 for front in fronts):
                break
            if flat is not None:
                reached = [
                    _reach_flat(front, flat, flat_states) for front in fronts
                ]
            else:
                reached = [
                    _reach_masked(front, live, arrays, flat_states, n)
                    for front in fronts
                ]
            # Priority tie-break: a later cascade in the order drops keys
            # an earlier one claimed this hop (all key sets stay unique
            # and pairwise disjoint, so assume_unique holds).
            claimed = _EMPTY
            for cascade in order:
                keys = reached[cascade]
                if claimed.size and keys.size:
                    keys = keys[~np.isin(keys, claimed, assume_unique=True)]
                    reached[cascade] = keys
                claimed = keys if not claimed.size else np.concatenate((claimed, keys))
            if all(keys.size == 0 for keys in reached):
                break
            for cascade, keys in enumerate(reached):
                flat_states[keys] = cascade + 1
                counts[cascade] = counts[cascade] + np.bincount(
                    keys // n, minlength=batch
                )
                planes[cascade].append(counts[cascade].copy())
            fronts = reached
        kind = "doam" if live is None else "ic"
        return BatchOutcome(kind, n, states, cascade_hops=planes)

    @staticmethod
    def _flat_adjacency(worlds, live, arrays, batch: int, n: int):
        """``(indptr, head_keys)`` of the flattened live adjacency.

        For IC the structure is cached inside the :class:`WorldBatch`
        payload (keyed by the graph arrays), because sigma evaluation
        replays the same batch once per candidate. DOAM (``live=None``)
        replicates the full CSR, which for its single world is cheap.
        """
        cached = worlds.data.get("_flat") if worlds is not None else None
        if cached is not None and cached[0] is arrays:
            return cached[1]
        if live is None:
            edge_count = arrays.indices.size
            worlds_offset = np.repeat(
                np.arange(batch, dtype=np.int64) * n, edge_count
            )
            head_keys = worlds_offset + np.tile(arrays.indices, batch)
            counts = np.tile(arrays.out_deg, batch)
        else:
            live_w, live_e = np.nonzero(live)
            # live_e ascends within each world and CSR edges sort by tail,
            # so head_keys lands grouped by (world, tail) in edge order.
            tail_keys = live_w * n + arrays.edge_tails[live_e]
            head_keys = live_w * n + arrays.indices[live_e]
            counts = np.bincount(tail_keys, minlength=batch * n)
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat = (indptr, head_keys)
        if worlds is not None:
            worlds.data["_flat"] = (arrays, flat)
        return flat

    def _lt(self, arrays, states, seeds, thresholds, max_hops) -> BatchOutcome:
        batch, n = states.shape
        order = seeds.priority
        weights = [
            np.zeros((batch, n), dtype=np.float64) for _ in seeds.cascades
        ]
        fronts = [_seed_pairs(members, batch) for members in seeds.cascades]
        counts = [
            np.full(batch, len(members), dtype=np.int64)
            for members in seeds.cascades
        ]
        planes = [[count.copy()] for count in counts]
        for _hop in range(max_hops):
            if all(front[0].size == 0 for front in fronts):
                break
            # Feed in priority order — each cascade accumulates into its
            # own weight matrix in the reference backend's loop order.
            touched_keys = [
                _feed(fronts[cascade], weights[cascade], arrays, states, n)
                for cascade in order
            ]
            touched = _unique(np, np.concatenate(touched_keys))
            if touched.size == 0:
                break
            tw, tu = touched // n, touched % n
            theta = thresholds[tw, tu]
            # The first cascade in priority order whose own in-weight
            # crosses θ claims the node (P priority for K=2).
            crosses = [np.zeros(0, dtype=bool)] * len(fronts)
            prior = np.zeros(touched.size, dtype=bool)
            for cascade in order:
                cross = (weights[cascade][tw, tu] + 1e-12 >= theta) & ~prior
                crosses[cascade] = cross
                prior = prior | cross
            if not prior.any():
                break
            fronts = [
                (tw[crosses[cascade]], tu[crosses[cascade]])
                for cascade in range(len(fronts))
            ]
            for cascade, front in enumerate(fronts):
                states[front] = cascade + 1
                counts[cascade] = counts[cascade] + np.bincount(
                    front[0], minlength=batch
                )
                planes[cascade].append(counts[cascade].copy())
        return BatchOutcome("lt", n, states, cascade_hops=planes)

    def _opoao(self, arrays, states, seeds, picks, max_hops) -> BatchOutcome:
        """OPOAO: *live* pickers tracked as sparse ``world * n + node`` keys.

        Each live picker reads its pick with the same ``floor(r * d)``
        IEEE arithmetic as the reference backend, just gathered for all
        worlds at once. ``remaining`` counts every active node's inactive
        out-neighbors (maintained via the reverse adjacency), so dead
        pickers — whose picks never land, hence never matter — are pruned
        permanently and late-game saturated worlds cost almost nothing.
        It also makes termination exact for free: a live picker exists
        iff some world still has an active -> inactive edge, which is
        precisely the reference backend's stop condition.
        """
        batch, n = states.shape
        indptr, indices, out_deg = arrays.indptr, arrays.indices, arrays.out_deg
        order = seeds.priority
        counts = [
            np.full(batch, len(members), dtype=np.int64)
            for members in seeds.cascades
        ]
        planes = [[count.copy()] for count in counts]
        if indices.size == 0:
            return BatchOutcome("opoao", n, states, cascade_hops=planes)
        flat_states = states.reshape(-1)
        seed_ids = np.asarray(sorted(seeds.all_seeds()), dtype=np.int64)
        # Inactive-out-neighbor counts per (world, node): seeds are the
        # same in every world, so compute once and tile.
        seed_mask = np.zeros(n, dtype=bool)
        seed_mask[seed_ids] = True
        seeded_out = np.bincount(
            arrays.edge_tails[seed_mask[indices]], minlength=n
        )
        remaining = np.tile(out_deg - seeded_out, batch)
        picker_ids = seed_ids[out_deg[seed_ids] > 0]
        act_keys = (
            np.repeat(np.arange(batch, dtype=np.int64) * n, picker_ids.size)
            + np.tile(picker_ids, batch)
        )
        act_keys = act_keys[remaining[act_keys] > 0]
        for hop in range(max_hops):
            if act_keys.size == 0:
                break  # no live picker anywhere <=> no live edge anywhere
            act_u = act_keys % n
            draws = picks[act_keys // n, hop, act_u]
            degrees = out_deg[act_u]
            offsets = (draws * degrees).astype(np.int64)
            np.minimum(offsets, degrees - 1, out=offsets)
            target_keys = act_keys - act_u + indices[indptr[act_u] + offsets]
            hit = flat_states[target_keys] == INACTIVE
            if hit.any():
                hit_keys = target_keys[hit]
                act_states = flat_states[act_keys[hit]]
                reached = [
                    _unique(np, hit_keys[act_states == cascade + 1])
                    for cascade in range(len(counts))
                ]
                # Priority resolves conflicts: later cascades in the
                # order drop keys an earlier one claimed this hop.
                claimed = _EMPTY
                for cascade in order:
                    keys = reached[cascade]
                    if claimed.size and keys.size:
                        keys = keys[~np.isin(keys, claimed, assume_unique=True)]
                        reached[cascade] = keys
                    claimed = (
                        keys if not claimed.size
                        else np.concatenate((claimed, keys))
                    )
                for cascade, keys in enumerate(reached):
                    flat_states[keys] = cascade + 1
                    counts[cascade] = counts[cascade] + np.bincount(
                        keys // n, minlength=batch
                    )
                # ``claimed`` concatenates the new keys in priority order
                # (the pre-refactor P-then-R order for K=2).
                new_keys = claimed
                dec_w, _, dec_tails = _edges_of(
                    new_keys // n, new_keys % n,
                    arrays.in_indptr, arrays.in_tails,
                )
                np.subtract.at(remaining, dec_w * n + dec_tails, 1)
                act_keys = np.concatenate(
                    (act_keys, new_keys[out_deg[new_keys % n] > 0])
                )
            for cascade, count in enumerate(counts):
                # Zero-hit hops are wasted repeat-selection steps:
                # recorded, and the race continues (still a live picker).
                planes[cascade].append(count.copy())
            act_keys = act_keys[remaining[act_keys] > 0]
        return BatchOutcome("opoao", n, states, cascade_hops=planes)


def _batch_array(worlds: WorldBatch, key: str, dtype) -> np.ndarray:
    """The batch payload as an ndarray, converted once and cached in place
    (sigma evaluation replays the same batch hundreds of times)."""
    data = worlds.data[key]
    if not isinstance(data, np.ndarray) or data.dtype != dtype:
        data = np.asarray(data, dtype=dtype)
        worlds.data[key] = data
    return data


def _seed_pairs(nodes, batch: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seed frontier as sorted ``(world, node)`` index pairs."""
    ids = np.asarray(sorted(nodes), dtype=np.int64)
    worlds_idx = np.repeat(np.arange(batch, dtype=np.int64), ids.size)
    return worlds_idx, np.tile(ids, batch)


def _seed_keys(nodes, batch: int, n: int) -> np.ndarray:
    """Seed frontier as sorted flat ``world * n + node`` keys."""
    worlds_idx, ids = _seed_pairs(nodes, batch)
    return worlds_idx * n + ids


def _edges_of(
    worlds_idx: np.ndarray,
    nodes: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged CSR gather: all out-edges of ``(world, node)`` pairs.

    Returns ``(world, edge_position, head)`` triples, one per out-edge,
    in (world, node, edge-position) order — the reference backend's loop
    order, which matters when the caller accumulates floats.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - counts, counts
    )
    positions = np.repeat(indptr[nodes], counts) + offsets
    return np.repeat(worlds_idx, counts), positions, indices[positions]


def _reach_masked(front_keys, live, arrays, flat_states, n: int) -> np.ndarray:
    """BFS step filtering the live-edge mask per hop (large-batch fallback)."""
    edge_w, edge_pos, heads = _edges_of(
        front_keys // n, front_keys % n, arrays.indptr, arrays.indices
    )
    if edge_w.size == 0:
        return _EMPTY
    keys = edge_w * n + heads
    ok = flat_states[keys] == INACTIVE
    if live is not None:
        ok &= live[edge_w, edge_pos]
    return _unique(np, keys[ok])


def _reach_flat(front_keys, flat, flat_states) -> np.ndarray:
    """One BFS step on the flattened live adjacency: unique keys of
    inactive nodes reached from the frontier keys."""
    if front_keys.size == 0:
        return _EMPTY
    indptr, head_keys = flat
    counts = indptr[front_keys + 1] - indptr[front_keys]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - counts, counts
    )
    heads = head_keys[np.repeat(indptr[front_keys], counts) + offsets]
    return _unique(np, heads[flat_states[heads] == INACTIVE])


def _feed(front, weights, arrays, states, n: int) -> np.ndarray:
    """LT influence push: add ``1/d_in`` from front nodes to their inactive
    out-neighbors (unbuffered, in reference loop order). Returns the
    ``world * n + node`` keys of the touched targets (with duplicates)."""
    front_w, front_u = front
    if front_w.size == 0:
        return _EMPTY
    edge_w, _, heads = _edges_of(
        front_w, front_u, arrays.indptr, arrays.indices
    )
    if edge_w.size == 0:
        return _EMPTY
    ok = states[edge_w, heads] == INACTIVE
    edge_w, heads = edge_w[ok], heads[ok]
    np.add.at(weights, (edge_w, heads), arrays.inv_indeg[heads])
    return edge_w * n + heads

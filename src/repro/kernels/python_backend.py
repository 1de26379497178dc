"""Pure-Python reference kernel backend.

Runs each world of the batch as an explicit deterministic race over the
pre-sampled randomness. This is the semantic ground truth the NumPy
backend is tested against — every rule here (priority tie-breaking, the
LT ``+1e-12`` crossing tolerance, OPOAO's repeat selection and liveness
termination) mirrors the per-run models in :mod:`repro.diffusion`, just
driven by a :class:`~repro.kernels.worlds.WorldBatch` instead of a live
RNG. It is also the fallback engine when NumPy is not installed, keeping
the core zero-dependency.

All races are K-cascade: fronts advance in the
:class:`~repro.diffusion.base.CascadeSet` priority order, and a target
claimed by an earlier cascade this hop is invisible to later ones. With
the default ``positives-first`` order and K=2 this is bit-identical to
the historical two-cascade race (P wins ties).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.diffusion.base import INACTIVE, CascadeSet
from repro.graph.compact import IndexedDiGraph
from repro.kernels.base import BatchOutcome, KernelBackend, seeded_states
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch

__all__ = ["PythonKernelBackend"]

#: (final states, per-cascade cumulative series — one list per cascade)
WorldRun = Tuple[List[int], List[List[int]]]


class PythonKernelBackend(KernelBackend):
    """Zero-dependency reference implementation of the batched kernels."""

    name = "python"

    def _run(
        self,
        graph: IndexedDiGraph,
        spec: KernelSpec,
        worlds: WorldBatch,
        seeds: CascadeSet,
        max_hops: int,
    ) -> BatchOutcome:
        runs: List[WorldRun] = []
        if spec.kind in ("ic", "doam"):
            live = None if spec.kind == "doam" else _rows(worlds, "live")
            for world in range(worlds.batch):
                live_row = None if live is None else live[world]
                runs.append(_race_world(graph, live_row, seeds, max_hops))
        elif spec.kind == "lt":
            thresholds = _rows(worlds, "thresholds")
            for world in range(worlds.batch):
                runs.append(
                    _lt_world(graph, thresholds[world], seeds, max_hops)
                )
        else:  # opoao (spec validated upstream)
            picks = _rows(worlds, "picks")
            for world in range(worlds.batch):
                runs.append(_opoao_world(graph, picks[world], seeds, max_hops))
        return _assemble(spec.kind, graph.node_count, runs, seeds.cascade_count)


def _rows(worlds: WorldBatch, key: str):
    """The payload as nested lists; a NumPy payload is converted once and
    cached in place (same values, no per-element NumPy scalar access)."""
    data = worlds.data[key]
    if hasattr(data, "tolist"):
        data = worlds.data[key] = data.tolist()
    return data


def _assemble(
    kind: str, node_count: int, runs: Sequence[WorldRun], cascade_count: int
) -> BatchOutcome:
    """Transpose per-world series to the hop-major layout, padding short
    worlds with their final (frozen) counts so every hop has one entry per
    world — the same shape the vectorized backend produces natively."""
    length = max(len(series[0]) for _, series in runs)
    planes: List[List[List[int]]] = []
    for cascade in range(cascade_count):
        plane: List[List[int]] = []
        for hop in range(length):
            plane.append(
                [
                    series[cascade][min(hop, len(series[cascade]) - 1)]
                    for _, series in runs
                ]
            )
        planes.append(plane)
    states = [run_states for run_states, _ in runs]
    return BatchOutcome(kind, node_count, states, cascade_hops=planes)


def _race_world(
    graph: IndexedDiGraph,
    live_row,
    seeds: CascadeSet,
    max_hops: int,
) -> WorldRun:
    """IC/DOAM: simultaneous BFS race on the live subgraph, priority ties.

    ``live_row`` is indexed by CSR edge position (``None`` = every edge
    live, which is exactly DOAM).
    """
    out = graph.out
    indptr = graph.csr().indptr
    states = seeded_states(graph.node_count, seeds)
    order = seeds.priority
    totals = [len(cascade) for cascade in seeds.cascades]
    series: List[List[int]] = [[total] for total in totals]
    fronts: List[List[int]] = [sorted(cascade) for cascade in seeds.cascades]

    for _hop in range(max_hops):
        if not any(fronts):
            break
        targets: List[Set[int]] = [set() for _ in fronts]
        claimed: Set[int] = set()
        for cascade in order:
            chosen = targets[cascade]
            for node in fronts[cascade]:
                base = indptr[node]
                for position, neighbor in enumerate(out[node]):
                    if (
                        states[neighbor] == INACTIVE
                        and neighbor not in claimed
                        and (live_row is None or live_row[base + position])
                    ):
                        chosen.add(neighbor)
            claimed |= chosen
        if not claimed:
            break
        for cascade, chosen in enumerate(targets):
            state = cascade + 1
            for node in chosen:
                states[node] = state
            totals[cascade] += len(chosen)
            series[cascade].append(totals[cascade])
        fronts = [sorted(chosen) for chosen in targets]
    return states, series


def _lt_world(
    graph: IndexedDiGraph,
    thresholds,
    seeds: CascadeSet,
    max_hops: int,
) -> WorldRun:
    """Competitive LT on fixed thresholds (per-cascade crossing, priority).

    The accumulation order (fronts fed in priority order — protected
    first for K=2 — fronts walked in ascending node order, out-rows in
    CSR order) is part of the contract: the NumPy backend reproduces the
    same float addition order so shared worlds give bit-identical sums.
    """
    n = graph.node_count
    out = graph.out
    states = seeded_states(n, seeds)
    order = seeds.priority
    cascade_weight: List[List[float]] = [[0.0] * n for _ in seeds.cascades]

    def feed(front: List[int], weights: List[float]) -> Set[int]:
        touched: Set[int] = set()
        for node in front:
            for neighbor in out[node]:
                if states[neighbor] != INACTIVE:
                    continue
                weights[neighbor] += 1.0 / max(1, graph.in_degree(neighbor))
                touched.add(neighbor)
        return touched

    totals = [len(cascade) for cascade in seeds.cascades]
    series: List[List[int]] = [[total] for total in totals]
    fronts: List[List[int]] = [sorted(cascade) for cascade in seeds.cascades]

    for _hop in range(max_hops):
        if not any(fronts):
            break
        touched: Set[int] = set()
        for cascade in order:
            touched |= feed(fronts[cascade], cascade_weight[cascade])
        news: List[List[int]] = [[] for _ in fronts]
        for node in sorted(touched):
            for cascade in order:
                if cascade_weight[cascade][node] + 1e-12 >= thresholds[node]:
                    news[cascade].append(node)
                    break
        if not any(news):
            break
        for cascade, new in enumerate(news):
            state = cascade + 1
            for node in new:
                states[node] = state
            totals[cascade] += len(new)
            series[cascade].append(totals[cascade])
        fronts = news
    return states, series


def _opoao_world(
    graph: IndexedDiGraph,
    picks,
    seeds: CascadeSet,
    max_hops: int,
) -> WorldRun:
    """OPOAO on a fixed pick table: ``picks[hop][node]`` is the node's
    uniform draw for that step, mapped to out-neighbor ``floor(r * d_out)``.

    A step with zero successful activations does **not** end the run
    (repeat selection may succeed later); the run ends when no active
    node has an inactive out-neighbor left. Every active node reads its
    pick every step — a node whose out-neighbors are all active picks a
    wasted target, which is what the vectorized backend computes too, so
    both backends consume the table identically.
    """
    out = graph.out
    states = seeded_states(graph.node_count, seeds)
    order = seeds.priority
    active: List[int] = sorted(seeds.all_seeds())

    totals = [len(cascade) for cascade in seeds.cascades]
    series: List[List[int]] = [[total] for total in totals]

    for hop in range(max_hops):
        row = picks[hop]
        alive = False
        targets: List[Set[int]] = [set() for _ in seeds.cascades]
        for node in active:
            neighbors = out[node]
            if not neighbors:
                continue
            if not alive and any(
                states[neighbor] == INACTIVE for neighbor in neighbors
            ):
                alive = True
            degree = len(neighbors)
            index = int(row[node] * degree)
            if index >= degree:  # r == 1.0 cannot happen, but stay safe
                index = degree - 1
            target = neighbors[index]
            if states[target] != INACTIVE:
                continue  # repeat selection wasted on an active neighbor
            targets[states[node] - 1].add(target)
        if not alive:
            break  # no active node can ever activate anything again
        claimed: Set[int] = set()
        for cascade in order:  # priority resolves conflicts
            targets[cascade] -= claimed
            claimed |= targets[cascade]
        for cascade, chosen in enumerate(targets):
            state = cascade + 1
            for node in chosen:
                states[node] = state
            totals[cascade] += len(chosen)
            series[cascade].append(totals[cascade])
        active.extend(sorted(claimed))
    return states, series

"""Pure-Python reference kernel backend.

Races each world of the batch through the per-run models' own race
functions (:mod:`repro.diffusion`), fed the world's cells where a
per-run model draws from its stream, so every race rule has one Python
implementation. It is the semantic ground truth the NumPy backend is
tested against, and the fallback engine when NumPy is not installed,
keeping the core zero-dependency.
"""

from __future__ import annotations

from typing import Callable, List

from repro.diffusion.base import CascadeSet, seeded_start
from repro.diffusion.doam import bfs_race
from repro.diffusion.lt import threshold_race
from repro.diffusion.opoao import opoao_race
from repro.graph.compact import IndexedDiGraph
from repro.kernels.base import BatchOutcome, KernelBackend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch

__all__ = ["PythonKernelBackend"]


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
        rows: List[List[int]] = []
        series: List[List[List[int]]] = []
        for world in range(worlds.batch):
            states, trace = seeded_start(graph.node_count, seeds)
            if spec.kind == "doam":
                bfs_race(graph, states, seeds, trace, max_hops)
            elif spec.kind == "ic":
                live = _rows(worlds, "live")[world]
                bfs_race(graph, states, seeds, trace, max_hops, live)
            elif spec.kind == "lt":
                thresholds = _rows(worlds, "thresholds")[world]
                threshold_race(graph, states, seeds, trace, max_hops, thresholds)
            else:  # opoao (spec validated upstream)
                picks = _picker(graph, _rows(worlds, "picks")[world])
                opoao_race(graph, states, seeds, trace, max_hops, picks)
            rows.append(states)
            series.append(trace.series)
        return BatchOutcome.from_runs(spec.kind, graph.node_count, rows, series)


def _rows(worlds: WorldBatch, key: str):
    """The payload as nested lists; a NumPy payload is converted once and
    cached in place (same values, no per-element NumPy scalar access)."""
    data = worlds.data[key]
    if hasattr(data, "tolist"):
        data = worlds.data[key] = data.tolist()
    return data


def _picker(graph: IndexedDiGraph, draws) -> Callable[[List[int], int], List[int]]:
    """OPOAO's ``picks(nodes, hop)`` on one world: each node's out-neighbor
    ``floor(r * d_out)`` of its draw ``r = draws[hop][node]``."""
    out = graph.out

    def picks(nodes: List[int], hop: int) -> List[int]:
        row = draws[hop]
        targets = []
        for node in nodes:
            neighbors = out[node]
            degree = len(neighbors)
            index = int(row[node] * degree)
            # r == 1.0 cannot happen, but stay safe
            targets.append(neighbors[index if index < degree else degree - 1])
        return targets

    return picks

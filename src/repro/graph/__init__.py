"""Directed-graph substrate.

Everything in the paper runs on a directed graph G = (N, E) (Section III);
this package provides that substrate from scratch:

* :mod:`repro.graph.digraph` — the :class:`DiGraph` container (weighted
  directed multigraph-free graph with O(1) adjacency).
* :mod:`repro.graph.compact` — :class:`IndexedDiGraph`, an
  integer-indexed snapshot used by the hot simulation loops (frozen node
  set; edges mutable in place via :meth:`IndexedDiGraph.apply_updates`).
* :mod:`repro.graph.overlay` — the incremental CSR overlay behind
  ``apply_updates``: per-row rebuilding, version bumping, touched-id
  reporting for downstream sketch invalidation.
* :mod:`repro.graph.traversal` — BFS layers, multi-source BFS, hop
  distances, reachability (the paper's workhorse, Section V).
* :mod:`repro.graph.generators` — random-graph models used to synthesise
  datasets (ER, BA, WS, planted partition, power-law communities).
* :mod:`repro.graph.metrics` — density, degree statistics, clustering.
* :mod:`repro.graph.io` — edge-list / adjacency / JSON persistence.
* :mod:`repro.graph.subgraph` — induced subgraphs.
"""

from repro.graph.compact import IndexedDiGraph
from repro.graph.digraph import DiGraph
from repro.graph.overlay import apply_updates
from repro.graph.subgraph import induced_subgraph

__all__ = [
    "DiGraph",
    "IndexedDiGraph",
    "apply_updates",
    "induced_subgraph",
]

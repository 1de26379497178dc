"""The core directed-graph container.

:class:`DiGraph` stores a simple weighted directed graph (no parallel
edges; self-loops allowed but unused by the paper's models) with symmetric
O(1) access to successors and predecessors. Nodes are arbitrary hashable
objects; the dataset loaders use ints and strings.

Design notes
------------
* Adjacency is ``dict[node, dict[node, float]]`` in both directions, i.e.
  every edge is stored twice (forward and reverse) so rumor-forward BFS and
  bridge-end-*backward* BFS (Section V of the paper) are equally cheap.
* Mutation keeps both directions consistent; invariants are cheap enough
  that the test suite re-validates them property-based.
* Hot loops (Monte-Carlo diffusion) do not run on this class — they run on
  :class:`repro.graph.compact.IndexedDiGraph`, an immutable int-indexed
  snapshot produced by :meth:`DiGraph.to_indexed`.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

__all__ = ["DiGraph", "Node", "Edge"]

Node = Hashable
Edge = Tuple[Node, Node]


class DiGraph:
    """A simple weighted directed graph.

    Example:
        >>> g = DiGraph()
        >>> g.add_edge("a", "b")
        >>> g.add_edge("b", "c", weight=2.0)
        >>> sorted(g.successors("b"))
        ['c']
        >>> g.in_degree("b")
        1
    """

    __slots__ = ("_succ", "_pred", "_edge_count", "name")

    def __init__(self, name: str = "") -> None:
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        self._edge_count = 0
        self.name = name

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        nodes: Iterable[Node] = (),
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from an edge iterable (plus optional isolated nodes)."""
        graph = cls(name=name)
        for node in nodes:
            graph.add_node(node)
        for tail, head in edges:
            graph.add_edge(tail, head)
        return graph

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[Node, Iterable[Node]], name: str = ""
    ) -> "DiGraph":
        """Build a graph from a ``{tail: [heads...]}`` mapping."""
        graph = cls(name=name)
        for tail, heads in adjacency.items():
            graph.add_node(tail)
            for head in heads:
                graph.add_edge(tail, head)
        return graph

    def copy(self, name: Optional[str] = None) -> "DiGraph":
        """Return an independent deep copy of the structure."""
        clone = DiGraph(name=self.name if name is None else name)
        clone._succ = {node: dict(nbrs) for node, nbrs in self._succ.items()}
        clone._pred = {node: dict(nbrs) for node, nbrs in self._pred.items()}
        clone._edge_count = self._edge_count
        return clone

    def reverse(self, name: Optional[str] = None) -> "DiGraph":
        """Return a copy with every edge direction flipped."""
        flipped = DiGraph(name=self.name if name is None else name)
        flipped._succ = {node: dict(nbrs) for node, nbrs in self._pred.items()}
        flipped._pred = {node: dict(nbrs) for node, nbrs in self._succ.items()}
        flipped._edge_count = self._edge_count
        return flipped

    # -- mutation -------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node`` (no-op if present)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add many nodes."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, tail: Node, head: Node, weight: float = 1.0) -> None:
        """Add the directed edge ``tail -> head`` (endpoints auto-created).

        Re-adding an existing edge overwrites its weight; the edge count is
        unchanged.
        """
        if weight <= 0:
            raise GraphError(f"edge weight must be > 0, got {weight!r}")
        self.add_node(tail)
        self.add_node(head)
        if head not in self._succ[tail]:
            self._edge_count += 1
        self._succ[tail][head] = weight
        self._pred[head][tail] = weight

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add many unit-weight edges."""
        for tail, head in edges:
            self.add_edge(tail, head)

    def add_symmetric_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add both ``u -> v`` and ``v -> u`` (undirected-edge convention).

        The paper symmetrises the Hep collaboration network this way
        (Section VI.A.2).
        """
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def remove_edge(self, tail: Node, head: Node) -> None:
        """Remove the directed edge ``tail -> head``."""
        try:
            del self._succ[tail][head]
        except KeyError:
            raise EdgeNotFoundError(tail, head) from None
        del self._pred[head][tail]
        self._edge_count -= 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for head in list(self._succ[node]):
            self.remove_edge(node, head)
        for tail in list(self._pred[node]):
            self.remove_edge(tail, node)
        del self._succ[node]
        del self._pred[node]

    # -- inspection -------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed edges as ``(tail, head)`` pairs."""
        for tail, nbrs in self._succ.items():
            for head in nbrs:
                yield (tail, head)

    def weighted_edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over ``(tail, head, weight)`` triples."""
        for tail, nbrs in self._succ.items():
            for head, weight in nbrs.items():
                yield (tail, head, weight)

    def has_node(self, node: Node) -> bool:
        """True if ``node`` is present."""
        return node in self._succ

    def has_edge(self, tail: Node, head: Node) -> bool:
        """True if ``tail -> head`` is present."""
        return tail in self._succ and head in self._succ[tail]

    def _require_node(self, node: Node) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(node)

    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over out-neighbors of ``node``."""
        self._require_node(node)
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over in-neighbors of ``node``."""
        self._require_node(node)
        return iter(self._pred[node])

    def out_degree(self, node: Node) -> int:
        """Number of out-edges of ``node`` (the paper's ``d_out``)."""
        self._require_node(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node``."""
        self._require_node(node)
        return len(self._pred[node])

    def degree(self, node: Node) -> int:
        """Total degree (in + out)."""
        return self.in_degree(node) + self.out_degree(node)

    def edge_weight(self, tail: Node, head: Node) -> float:
        """Weight of ``tail -> head``; raises if absent."""
        self._require_node(tail)
        try:
            return self._succ[tail][head]
        except KeyError:
            raise EdgeNotFoundError(tail, head) from None

    def out_weight(self, node: Node) -> float:
        """Sum of weights on out-edges of ``node``."""
        self._require_node(node)
        return sum(self._succ[node].values())

    def in_weight(self, node: Node) -> float:
        """Sum of weights on in-edges of ``node``."""
        self._require_node(node)
        return sum(self._pred[node].values())

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.weighted_edges())

    # -- conversion -------------------------------------------------------------

    def to_indexed(self) -> "IndexedDiGraph":
        """Snapshot this graph into an immutable int-indexed form.

        The returned :class:`~repro.graph.compact.IndexedDiGraph` is what
        the diffusion hot loops run on; it keeps a stable node ordering
        (insertion order) so translation between the two is deterministic.
        """
        from repro.graph.compact import IndexedDiGraph

        return IndexedDiGraph.from_digraph(self)

    def to_undirected_weights(self) -> Dict[Node, Dict[Node, float]]:
        """Symmetrised weighted adjacency (for modularity / Louvain).

        An edge present in both directions contributes the sum of the two
        weights; a one-directional edge contributes its weight. Self-loops
        keep their weight once.
        """
        sym: Dict[Node, Dict[Node, float]] = {node: {} for node in self._succ}
        for tail, head, weight in self.weighted_edges():
            if tail == head:
                sym[tail][tail] = sym[tail].get(tail, 0.0) + weight
                continue
            sym[tail][head] = sym[tail].get(head, 0.0) + weight
            sym[head][tail] = sym[head].get(tail, 0.0) + weight
        return sym

    # -- integrity ---------------------------------------------------------------

    def validate(self) -> None:
        """Check internal invariants; raises :class:`GraphError` on breakage.

        Used by the property-based test suite after random mutation
        sequences.
        """
        if set(self._succ) != set(self._pred):
            raise GraphError("successor and predecessor node sets differ")
        forward = {
            (tail, head): weight for tail, head, weight in self.weighted_edges()
        }
        backward = {
            (tail, head): weight
            for head, nbrs in self._pred.items()
            for tail, weight in nbrs.items()
        }
        if forward != backward:
            raise GraphError("forward and reverse adjacency disagree")
        if len(forward) != self._edge_count:
            raise GraphError(
                f"edge count {self._edge_count} != stored edges {len(forward)}"
            )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"DiGraph({label} nodes={self.node_count}, edges={self.edge_count})"

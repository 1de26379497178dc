"""Immutable integer-indexed graph snapshot for hot loops.

Monte-Carlo diffusion simulates tens of thousands of BFS-like sweeps; doing
that over ``dict``-keyed adjacency is needlessly slow. An
:class:`IndexedDiGraph` freezes a :class:`repro.graph.digraph.DiGraph` into:

* a stable node list (``labels``) and reverse index (``index_of``),
* out- and in-adjacency as ``list[list[int]]`` (tuple-of-tuples, actually,
  to guarantee immutability),

so the simulators run on small-int arrays and convert back to labels only
at the API boundary.

Two ingest paths exist for raw CSR arrays (:meth:`IndexedDiGraph.from_csr`):
the zero-dependency path validates element by element and builds the
adjacency eagerly, while NumPy-array inputs (the shared-memory worker
rebuild in :mod:`repro.exec.shm`) are validated **vectorized** and keep
the arrays as the graph's CSR export directly — the Python tuple
adjacency is then built lazily, only if something actually walks
``graph.out``/``graph.inn`` (the NumPy kernels never do).
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphError, NodeNotFoundError

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

__all__ = ["CSRArrays", "IndexedDiGraph"]


def _is_ndarray_triple(indptr, indices, weights) -> bool:
    """True when all inputs are NumPy arrays (the vectorized ingest path)."""
    if _np is None:
        return False
    arrays = (indptr, indices) + (() if weights is None else (weights,))
    return all(isinstance(a, _np.ndarray) for a in arrays)


class CSRArrays:
    """Compressed-sparse-row snapshot of the out-adjacency.

    The flat-array form the batched diffusion kernels
    (:mod:`repro.kernels`) consume: ``indices[indptr[u]:indptr[u + 1]]``
    are the out-neighbor ids of node ``u`` and ``weights`` is parallel to
    ``indices``. By default all three are plain tuples of Python numbers
    so the core stays zero-dependency; NumPy-array inputs are kept as
    int64/float64 arrays instead (same values, no per-element boxing) —
    the form shared-memory workers rebuild graphs from.

    Attributes:
        indptr: row pointers, length ``node_count + 1``.
        indices: flat out-neighbor ids, ``edge_count`` long.
        weights: flat edge weights, parallel to ``indices``.
    """

    __slots__ = ("indptr", "indices", "weights")

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        if _is_ndarray_triple(indptr, indices, weights):
            self.indptr = _np.asarray(indptr, dtype=_np.int64)
            self.indices = _np.asarray(indices, dtype=_np.int64)
            self.weights = _np.asarray(weights, dtype=_np.float64)
        else:
            self.indptr = tuple(int(p) for p in indptr)
            self.indices = tuple(int(i) for i in indices)
            self.weights = tuple(float(w) for w in weights)
        if len(self.weights) != len(self.indices):
            raise GraphError(
                f"weights ({len(self.weights)}) must parallel indices "
                f"({len(self.indices)})"
            )

    @property
    def node_count(self) -> int:
        """Number of rows."""
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        """Number of stored edges."""
        return len(self.indices)

    def row(self, node_id: int) -> Tuple[int, ...]:
        """Out-neighbor ids of one node, as a tuple of Python ints."""
        lo, hi = self.indptr[node_id], self.indptr[node_id + 1]
        return tuple(int(i) for i in self.indices[lo:hi])

    def out_degrees(self) -> List[int]:
        """Out-degree of every node, in id order."""
        return [
            int(self.indptr[u + 1] - self.indptr[u])
            for u in range(self.node_count)
        ]

    def in_degrees(self) -> List[int]:
        """In-degree of every node, in id order (bincount of ``indices``)."""
        counts = [0] * self.node_count
        for head in self.indices:
            counts[head] += 1
        return counts

    def __repr__(self) -> str:
        return f"CSRArrays(nodes={self.node_count}, edges={self.edge_count})"


def _validate_csr_ndarrays(n: int, indptr, indices, weights) -> None:
    """Vectorized equivalent of the scalar ``from_csr`` validation loop.

    Raises the same :class:`GraphError` messages as the element-wise
    path, found via the first offending position, so callers cannot tell
    which path rejected their input.
    """
    steps = _np.diff(indptr)
    if _np.any(steps < 0):
        u = int(_np.argmax(steps < 0))
        raise GraphError(
            f"indptr decreases at row {u}: {int(indptr[u])} -> "
            f"{int(indptr[u + 1])}"
        )
    if len(indices) == 0:
        return
    rows = _np.repeat(_np.arange(n, dtype=_np.int64), steps)
    out_of_range = (indices < 0) | (indices >= n)
    if _np.any(out_of_range):
        position = int(_np.argmax(out_of_range))
        raise GraphError(
            f"edge index {int(indices[position])} out of range [0, {n}) "
            f"in row {int(rows[position])}"
        )
    loops = indices == rows
    if _np.any(loops):
        raise GraphError(
            f"self-loop on node id {int(rows[int(_np.argmax(loops))])} "
            f"rejected"
        )
    # Duplicate edges within a row = duplicate (row, head) keys.
    keys = _np.sort(rows * _np.int64(n) + indices)
    duplicate = keys[1:] == keys[:-1]
    if _np.any(duplicate):
        key = int(keys[int(_np.argmax(duplicate))])
        raise GraphError(f"duplicate edge {key // n} -> {key % n} rejected")
    if weights is not None and _np.any(weights <= 0):
        position = int(_np.argmax(weights <= 0))
        raise GraphError(
            f"edge weight must be > 0, got {float(weights[position])!r} on "
            f"{int(rows[position])} -> {int(indices[position])}"
        )


class IndexedDiGraph:
    """Frozen integer view of a directed graph.

    Attributes:
        labels: tuple mapping node id -> original node label.
        out: tuple of tuples; ``out[u]`` lists out-neighbor ids of ``u``.
        inn: tuple of tuples; ``inn[u]`` lists in-neighbor ids of ``u``.

    ``out``/``inn``/``out_weights`` are materialised lazily when the
    graph was built from validated NumPy CSR arrays (see
    :meth:`from_csr`); every other construction path builds them
    eagerly, exactly as before.
    """

    __slots__ = (
        "labels",
        "_out",
        "_inn",
        "_out_weights",
        "_index_of",
        "edge_count",
        "_csr",
        "version",
    )

    def __init__(
        self,
        labels: Sequence[object],
        out: Sequence[Sequence[int]],
        inn: Sequence[Sequence[int]],
        out_weights: Sequence[Sequence[float]] = None,
    ) -> None:
        if not (len(labels) == len(out) == len(inn)):
            raise ValueError("labels/out/inn must have equal length")
        self.labels: Tuple[object, ...] = tuple(labels)
        self._out: Optional[Tuple[Tuple[int, ...], ...]] = tuple(
            tuple(n) for n in out
        )
        self._inn: Optional[Tuple[Tuple[int, ...], ...]] = tuple(
            tuple(n) for n in inn
        )
        if out_weights is None:
            self._out_weights: Optional[Tuple[Tuple[float, ...], ...]] = tuple(
                (1.0,) * len(neighbors) for neighbors in self._out
            )
        else:
            self._out_weights = tuple(tuple(w) for w in out_weights)
            if len(self._out_weights) != len(self._out) or any(
                len(weights) != len(neighbors)
                for weights, neighbors in zip(self._out_weights, self._out)
            ):
                raise ValueError("out_weights must parallel out adjacency")
        self._index_of: Dict[object, int] = {
            label: index for index, label in enumerate(self.labels)
        }
        if len(self._index_of) != len(self.labels):
            raise ValueError("node labels must be unique")
        self.edge_count = sum(len(neighbors) for neighbors in self._out)
        self._csr: Optional[CSRArrays] = None
        #: bumped by :meth:`apply_updates`; caches keyed on the graph
        #: (executor publications, worker materialisations) compare it.
        self.version = 0

    # -- lazy adjacency ----------------------------------------------------------

    @property
    def out(self) -> Tuple[Tuple[int, ...], ...]:
        """Out-adjacency tuples (built on first access for CSR-born graphs)."""
        if self._out is None:
            self._build_adjacency()
        return self._out

    @property
    def inn(self) -> Tuple[Tuple[int, ...], ...]:
        """In-adjacency tuples (built on first access for CSR-born graphs)."""
        if self._inn is None:
            self._build_adjacency()
        return self._inn

    @property
    def out_weights(self) -> Tuple[Tuple[float, ...], ...]:
        """Edge weights parallel to :attr:`out`."""
        if self._out_weights is None:
            self._build_adjacency()
        return self._out_weights

    def _build_adjacency(self) -> None:
        """Materialise the Python adjacency tuples from the CSR arrays."""
        csr = self._csr
        indptr = [int(p) for p in csr.indptr]
        indices = [int(i) for i in csr.indices]
        weights = [float(w) for w in csr.weights]
        n = len(self.labels)
        out: List[Tuple[int, ...]] = []
        wout: List[Tuple[float, ...]] = []
        inn: List[List[int]] = [[] for _ in range(n)]
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            out.append(tuple(indices[lo:hi]))
            wout.append(tuple(weights[lo:hi]))
            for head in indices[lo:hi]:
                inn[head].append(u)
        self._out = tuple(out)
        self._out_weights = tuple(wout)
        self._inn = tuple(tuple(heads) for heads in inn)

    @classmethod
    def from_digraph(cls, graph) -> "IndexedDiGraph":
        """Snapshot a :class:`~repro.graph.digraph.DiGraph`.

        Node ids follow the graph's insertion order, so repeated snapshots
        of the same graph are identical — important for seeded
        reproducibility of the simulators. Edge weights are carried along
        (parallel to ``out``) for the weighted diffusion variants.
        """
        labels = list(graph.nodes())
        position = {label: index for index, label in enumerate(labels)}
        out: List[List[int]] = [[] for _ in labels]
        inn: List[List[int]] = [[] for _ in labels]
        weights: List[List[float]] = [[] for _ in labels]
        for tail, head, weight in graph.weighted_edges():
            out[position[tail]].append(position[head])
            weights[position[tail]].append(weight)
            inn[position[head]].append(position[tail])
        return cls(labels, out, inn, out_weights=weights)

    @classmethod
    def from_csr(
        cls,
        labels: Sequence[object],
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> "IndexedDiGraph":
        """Build a graph from validated CSR arrays (the kernel ingest path).

        The inverse of :meth:`csr`: ``IndexedDiGraph.from_csr(g.labels,
        *astuple(g.csr()))`` reproduces ``g`` exactly. Validation is
        strict because raw arrays carry none of :class:`DiGraph`'s
        invariants:

        * ``indptr`` must start at 0, be non-decreasing, have one entry
          per node plus one, and end at ``len(indices)``;
        * every index must be a valid node id;
        * self-loops and duplicate edges within a row are rejected (the
          diffusion kernels treat a self-loop as an always-wasted trial,
          so one in raw input almost certainly means corrupted data);
        * ``weights``, when given, must parallel ``indices`` and be
          strictly positive (matching :meth:`DiGraph.add_edge`).

        NumPy-array inputs take a vectorized path: the same checks run
        as array operations, the arrays become the graph's CSR export
        directly, and the Python adjacency tuples are built lazily on
        first access — which is what lets shared-memory pool workers
        rebuild a graph in O(1) Python work (see :mod:`repro.exec.shm`).
        """
        n = len(labels)
        if len(indptr) != n + 1:
            raise GraphError(
                f"indptr must have {n + 1} entries for {n} labels, "
                f"got {len(indptr)}"
            )
        if n and indptr[0] != 0:
            raise GraphError(f"indptr must start at 0, got {indptr[0]!r}")
        if not n and len(indices):
            raise GraphError("indices non-empty but there are no nodes")
        if n and indptr[-1] != len(indices):
            raise GraphError(
                f"indptr must end at len(indices)={len(indices)}, "
                f"got {indptr[-1]!r}"
            )
        if weights is not None and len(weights) != len(indices):
            raise GraphError(
                f"weights ({len(weights)}) must parallel indices "
                f"({len(indices)})"
            )
        if _is_ndarray_triple(indptr, indices, weights):
            indptr = _np.asarray(indptr, dtype=_np.int64)
            indices = _np.asarray(indices, dtype=_np.int64)
            if weights is None:
                weights = _np.ones(len(indices), dtype=_np.float64)
            else:
                weights = _np.asarray(weights, dtype=_np.float64)
            _validate_csr_ndarrays(n, indptr, indices, weights)
            return cls._from_csr_arrays(
                labels, CSRArrays(indptr, indices, weights)
            )
        out: List[List[int]] = []
        inn: List[List[int]] = [[] for _ in range(n)]
        row_weights: List[List[float]] = []
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            if hi < lo:
                raise GraphError(f"indptr decreases at row {u}: {lo} -> {hi}")
            row: List[int] = []
            seen = set()
            wrow: List[float] = []
            for position in range(lo, hi):
                head = int(indices[position])
                if not 0 <= head < n:
                    raise GraphError(
                        f"edge index {head} out of range [0, {n}) in row {u}"
                    )
                if head == u:
                    raise GraphError(f"self-loop on node id {u} rejected")
                if head in seen:
                    raise GraphError(f"duplicate edge {u} -> {head} rejected")
                seen.add(head)
                row.append(head)
                weight = 1.0 if weights is None else float(weights[position])
                if weight <= 0:
                    raise GraphError(
                        f"edge weight must be > 0, got {weight!r} on "
                        f"{u} -> {head}"
                    )
                wrow.append(weight)
                inn[head].append(u)
            out.append(row)
            row_weights.append(wrow)
        return cls(labels, out, inn, out_weights=row_weights)

    @classmethod
    def _from_csr_arrays(
        cls, labels: Sequence[object], csr: CSRArrays
    ) -> "IndexedDiGraph":
        """Internal: wrap already-validated CSR arrays without adjacency."""
        graph = cls.__new__(cls)
        graph.labels = tuple(labels)
        graph._out = None
        graph._inn = None
        graph._out_weights = None
        graph._index_of = {
            label: index for index, label in enumerate(graph.labels)
        }
        if len(graph._index_of) != len(graph.labels):
            raise ValueError("node labels must be unique")
        graph.edge_count = int(csr.edge_count)
        graph._csr = csr
        graph.version = 0
        return graph

    def apply_updates(
        self,
        insertions: Iterable[Sequence] = (),
        deletions: Iterable[Sequence] = (),
    ) -> FrozenSet[int]:
        """Apply an edge-update batch in place (the dynamic-graph path).

        ``insertions`` holds ``(tail_id, head_id[, weight])`` entries
        (re-inserting an existing edge overwrites its weight in place);
        ``deletions`` holds ``(tail_id, head_id)`` pairs that must name
        existing edges. The node set is fixed. The batch is validated
        before anything mutates, the memoized :meth:`csr` export is
        dropped, and :attr:`version` is bumped.

        Returns:
            The frozen set of touched endpoint ids — both ends of every
            mutated edge (see :mod:`repro.graph.overlay`).
        """
        from repro.graph.overlay import apply_updates

        return apply_updates(self, insertions, deletions)

    def csr(self) -> CSRArrays:
        """The cached CSR snapshot of the out-adjacency (see :class:`CSRArrays`).

        The memo is dropped (and rebuilt on next call) whenever
        :meth:`apply_updates` mutates the graph — a stale export can
        never be served after an update.
        """
        if self._csr is None:
            # Rows already hold ints; build the tuples straight from them
            # instead of re-boxing every element in CSRArrays.__init__.
            csr = CSRArrays.__new__(CSRArrays)
            csr.indptr = tuple(accumulate(map(len, self.out), initial=0))
            csr.indices = tuple(chain.from_iterable(self.out))
            csr.weights = tuple(map(float, chain.from_iterable(self.out_weights)))
            self._csr = csr
        return self._csr

    # -- basic accessors -------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: object) -> int:
        """Node id for ``label``; raises :class:`NodeNotFoundError` if absent."""
        try:
            return self._index_of[label]
        except KeyError:
            raise NodeNotFoundError(label) from None

    def indices(self, labels: Iterable[object]) -> List[int]:
        """Node ids for many labels."""
        return [self.index(label) for label in labels]

    def has_label(self, label: object) -> bool:
        """Whether ``label`` names a node of this graph."""
        return label in self._index_of

    def label_set(self, ids: Iterable[int]) -> set:
        """Original labels for a collection of node ids."""
        return {self.labels[node_id] for node_id in ids}

    def out_degree(self, node_id: int) -> int:
        """Out-degree of ``node_id`` (the paper's ``d_out``)."""
        return len(self.out[node_id])

    def in_degree(self, node_id: int) -> int:
        """In-degree of ``node_id``."""
        return len(self.inn[node_id])

    def __repr__(self) -> str:
        return f"IndexedDiGraph(nodes={self.node_count}, edges={self.edge_count})"

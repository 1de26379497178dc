"""Explicit world samples for the batched diffusion kernels.

A *world* is the entire randomness one diffusion run consumes, drawn up
front so the run itself becomes deterministic:

* **IC** — one liveness bit per edge (the classic live-edge graph; under
  weighted IC each edge's weight is its liveness probability);
* **LT** — one threshold per node;
* **OPOAO** — one uniform float per (hop, node), mapped to an out-neighbor
  pick via ``floor(r * d_out)``;
* **DOAM** — nothing (the model is deterministic).

A :class:`WorldBatch` holds ``batch`` such worlds. Because worlds are
plain data, the *same* batch can be fed to any backend, and two backends
given the same batch must produce **bit-identical** outcomes — the
property the differential test suite pins down.

:func:`sample_worlds` draws every cell through the counter-keyed rule of
:mod:`repro.rng`: replica ``i`` of a run seeded ``seed`` has the key
``derive_seed(seed, "replica", i)``, and each cell's draw is
:func:`~repro.rng.uniform` of (key, cell):

* IC — the edge at CSR position ``e`` is live iff ``uniform(key, e) < p_e``;
* LT — the threshold of node ``v`` is ``uniform(key, v)``;
* OPOAO — the draw of node ``v`` at hop ``h`` (``1 .. max_hops``) is
  ``uniform(key, step_cell(v, h))``, the RR picks' ``(v << 32) | h``.

No draw depends on another, so replica ``i`` is the same world whichever
batch, process or backend draws it. With NumPy the sampler computes one
block per world; without it, one cell at a time — the same bits either
way, so every backend races identical worlds.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from repro.errors import KernelError
from repro.graph.compact import CSRArrays, IndexedDiGraph
from repro.kernels.spec import KernelSpec
from repro.rng import derive_seed, keyed_uniform, mix64, step_cell
from repro.utils.validation import check_positive

try:
    import numpy as _np
except ImportError:  # the zero-dependency core: draw cell by cell
    _np = None  # type: ignore[assignment]

__all__ = ["WorldBatch", "sample_worlds"]


class WorldBatch:
    """A batch of pre-sampled diffusion worlds.

    Attributes:
        kind: model kind the worlds were sampled for.
        batch: number of worlds.
        max_hops: horizon the worlds cover (only OPOAO consumes per-hop
            randomness, but every batch records the horizon it was
            sampled for so a mismatched run fails loudly).
        data: per-kind payload —
            ``{"live": ...}`` (``batch × edge_count`` bools) for IC,
            ``{"thresholds": ...}`` (``batch × node_count`` floats) for LT,
            ``{"picks": ...}`` (``batch × max_hops × node_count`` floats)
            for OPOAO, ``{}`` for DOAM. Values are NumPy arrays when
            :func:`sample_worlds` ran with NumPy and nested lists
            otherwise (or when built by hand); backends accept both.
    """

    __slots__ = ("kind", "batch", "max_hops", "data")

    def __init__(
        self, kind: str, batch: int, max_hops: int, data: Dict[str, Any]
    ) -> None:
        self.kind = kind
        self.batch = int(check_positive(batch, "batch"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.data = data

    def check_run(self, kind: str, max_hops: int) -> None:
        """Fail loudly when a batch is replayed under mismatched settings."""
        if kind != self.kind:
            raise KernelError(
                f"world batch sampled for {self.kind!r} cannot run {kind!r}"
            )
        if max_hops > self.max_hops:
            raise KernelError(
                f"world batch covers {self.max_hops} hops; asked to run "
                f"{max_hops}"
            )

    def __repr__(self) -> str:
        return (
            f"WorldBatch(kind={self.kind!r}, batch={self.batch}, "
            f"max_hops={self.max_hops})"
        )


def sample_worlds(
    graph: IndexedDiGraph,
    spec: KernelSpec,
    indices: Iterable[int],
    max_hops: int,
    seed: int,
) -> WorldBatch:
    """The worlds of replicas ``indices`` (in order) as one :class:`WorldBatch`.

    Each world is a pure function of ``(seed, index)`` and the graph (see
    the module docstring for the rule), so any split of the indices into
    batches, in any process and on any backend, races the same worlds.
    """
    keys = [derive_seed(seed, "replica", int(index)) for index in indices]
    batch = len(keys)
    if spec.kind == "doam":
        return WorldBatch("doam", batch, max_hops, {})
    csr = graph.csr()
    mixed = _mixed_cells(csr, spec.kind, max_hops)
    data: Any
    if spec.kind == "ic":
        probabilities = _edge_probabilities(csr, spec)
        if _np is None:
            data = [
                [keyed_uniform(key, cell) < p for cell, p in zip(mixed, probabilities)]
                for key in keys
            ]
        else:
            probabilities = _np.asarray(probabilities, dtype=_np.float64)
            data = _np.empty((batch, csr.edge_count), dtype=_np.bool_)
            for world, key in enumerate(keys):
                _np.less(keyed_uniform(key, mixed), probabilities, out=data[world])
        return WorldBatch("ic", batch, max_hops, {"live": data})
    if _np is None:
        data = [[keyed_uniform(key, cell) for cell in mixed] for key in keys]
        if spec.kind == "opoao":  # hop-major rows of node_count draws
            n = csr.node_count
            data = [
                [draws[hop * n : (hop + 1) * n] for hop in range(max_hops)]
                for draws in data
            ]
    else:
        # One block per world: hashing the whole batch at once would hold
        # several batch-sized uint64 temporaries.
        data = _np.empty((batch,) + mixed.shape, dtype=_np.float64)
        for world, key in enumerate(keys):
            data[world] = keyed_uniform(key, mixed)
    field = "thresholds" if spec.kind == "lt" else "picks"
    return WorldBatch(spec.kind, batch, max_hops, {field: data})


def _mixed_cells(csr: CSRArrays, kind: str, max_hops: int) -> Any:
    """``mix64`` of every cell a ``kind`` world draws.

    The inner mix depends on the cell alone, so one call's worlds share
    it and each only keys it (:func:`~repro.rng.keyed_uniform`). IC
    cells are edge positions, LT cells node ids, OPOAO cells
    ``step_cell(node, hop)`` hop-major — a ``max_hops × node_count``
    array with NumPy, one flat list without.
    """
    count = csr.edge_count if kind == "ic" else csr.node_count
    if _np is not None:
        cells = _np.arange(count, dtype=_np.uint64)
        if kind == "opoao":
            hops = _np.arange(1, max_hops + 1, dtype=_np.uint64)
            cells = step_cell(cells[None, :], hops[:, None])
        return mix64(cells)
    if kind == "opoao":
        return [
            mix64(step_cell(node, hop))
            for hop in range(1, max_hops + 1)
            for node in range(count)
        ]
    return [mix64(cell) for cell in range(count)]


def _edge_probabilities(csr: CSRArrays, spec: KernelSpec) -> Sequence[float]:
    """Per-edge liveness probabilities for IC, in CSR edge order."""
    if spec.probability is not None:
        return [spec.probability] * csr.edge_count
    for weight in csr.weights:
        if not 0.0 <= weight <= 1.0:
            raise KernelError(
                f"weighted IC needs edge weights in [0, 1]; got {weight!r}"
            )
    return csr.weights

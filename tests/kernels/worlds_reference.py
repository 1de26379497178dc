"""The forward-kernel world sampler before the counter-keyed rule, frozen.

Before :func:`repro.kernels.worlds.sample_worlds` drew every cell
through :func:`repro.rng.uniform`, the backend-agnostic sampler drew
world ``b`` from ``RngStream(seed).replica(b)``: IC one uniform per edge
in CSR order, LT one threshold per node in id order, OPOAO
``max_hops × node_count`` uniforms hop-major. This is a verbatim copy
of that sampler. ``test_world_rule.py`` checks that the worlds the rule
draws race to the same statistics as these: the bits differ, the
distribution must not.
"""

from __future__ import annotations

from typing import List

from repro.errors import KernelError
from repro.graph.compact import CSRArrays
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch
from repro.rng import RngStream


def sample_shared_worlds(
    csr: CSRArrays,
    spec: KernelSpec,
    batch: int,
    max_hops: int,
    seed: int,
) -> WorldBatch:
    """Sample a backend-agnostic :class:`WorldBatch` with :class:`RngStream`.

    World ``b`` draws exclusively from ``RngStream(seed).replica(b)``:

    * IC — one uniform per edge, in CSR edge order; live iff ``r < p_e``;
    * LT — one threshold per node, in node-id order;
    * OPOAO — ``max_hops × node_count`` uniforms, hop-major.

    The draw order is part of the batch's contract: any sampler claiming
    to be "shared" must reproduce it exactly.
    """
    rng = RngStream(seed, name="kernel-worlds")
    n = csr.node_count
    if spec.kind == "doam":
        return WorldBatch("doam", batch, max_hops, {})
    if spec.kind == "ic":
        probabilities = _edge_probabilities(csr, spec)
        live: List[List[bool]] = []
        for world in range(batch):
            stream = rng.replica(world)
            live.append([stream.random() < p for p in probabilities])
        return WorldBatch("ic", batch, max_hops, {"live": live})
    if spec.kind == "lt":
        thresholds = [
            [rng.replica(world).random() for _ in range(n)]
            for world in range(batch)
        ]
        return WorldBatch("lt", batch, max_hops, {"thresholds": thresholds})
    if spec.kind == "opoao":
        picks: List[List[List[float]]] = []
        for world in range(batch):
            stream = rng.replica(world)
            picks.append(
                [[stream.random() for _ in range(n)] for _ in range(max_hops)]
            )
        return WorldBatch("opoao", batch, max_hops, {"picks": picks})
    raise KernelError(f"unknown kernel kind {spec.kind!r}")


def _edge_probabilities(csr: CSRArrays, spec: KernelSpec) -> List[float]:
    """Per-edge liveness probabilities for IC, in CSR edge order."""
    if spec.probability is not None:
        return [spec.probability] * csr.edge_count
    for weight in csr.weights:
        if not 0.0 <= weight <= 1.0:
            raise KernelError(
                f"weighted IC needs edge weights in [0, 1]; got {weight!r}"
            )
    return list(csr.weights)

"""Where each layer is timed, and the per-layer metrics derived from it.

Every :class:`~benchmarks.e2e.spans.Site` below is an import site: the
attribute a caller actually looks up at call time. ``from x import f``
copies ``f`` into the importing module, so those functions are patched
where they were imported to (``repro.serve.service.max_coverage``),
and methods on the class that defines them. A function imported inside
a function body (``SketchStore`` imports ``sample_worlds`` per call)
resolves through its defining module at each call, so it is patched
there.

``PER_LAYER`` lists every metric the traced run reports, with its unit;
``BENCHMARK.json`` declares the same list. Each is per traced op unless
it is a ratio.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from benchmarks.e2e.spans import Site, Span, self_times


def _indices_len(args, kwargs) -> int:
    return len(kwargs.get("indices", args[1] if len(args) > 1 else ()))


def _store_worlds(args, kwargs) -> int:
    return args[0].worlds


SITES: Tuple[Site, ...] = (
    # repro.graph / repro.datasets
    Site("repro.graph.compact", "IndexedDiGraph.csr", "graph.csr"),
    Site("repro.graph.compact", "IndexedDiGraph.apply_updates", "graph.apply_updates"),
    Site("repro.graph.digraph", "DiGraph.to_indexed", "graph.to_indexed"),
    Site("repro.experiments.harness", "load_dataset", "datasets.load"),
    # repro.bridge (id-space for the service, label-space for contexts)
    Site("repro.serve.service", "find_bridge_end_ids", "bridge.find_ends"),
    Site("repro.algorithms.base", "find_bridge_ends", "bridge.find_ends"),
    # repro.sketch.kernels
    Site("repro.sketch.kernels", "sample_worlds", "sketch.sample", _indices_len),
    # repro.sketch.store
    Site("repro.sketch.store", "SketchStore.refresh", "sketch.refresh", _store_worlds),
    Site("repro.sketch.store", "SketchStore.stale_worlds", "sketch.stale_worlds"),
    Site("repro.sketch.store", "SketchStore.ensure_worlds", "sketch.ensure_worlds"),
    Site("repro.sketch.store", "SketchStore.precision_ok", "sketch.precision_ok"),
    Site("repro.sketch.store", "SketchStore.sigma", "sketch.sigma"),
    # repro.sketch.coverage
    Site("repro.serve.service", "max_coverage", "coverage.max_coverage"),
    Site("repro.algorithms.ris_greedy", "max_coverage", "coverage.max_coverage"),
    # repro.algorithms
    Site("repro.algorithms.ris_greedy", "RISGreedySelector.select", "ris.select"),
    Site("repro.algorithms.celf", "CELFGreedySelector.select", "celf.select"),
    Site("repro.algorithms.greedy", "SigmaEstimator.sigma", "greedy.sigma"),
    # repro.diffusion / repro.lcrb
    Site("repro.diffusion.base", "DiffusionModel.run", "diffusion.run"),
    Site("repro.diffusion.simulation", "MonteCarloSimulator.simulate", "sim.simulate"),
    Site("repro.experiments.harness", "evaluate_protectors", "lcrb.evaluate"),
    # repro.kernels
    Site("repro.kernels.sigma", "BatchedSigmaEvaluator.protected_fraction", "kernels.verify"),
    # repro.exec
    Site("repro.exec.pool", "ParallelExecutor.map_items", "exec.map"),
    Site("repro.exec.pool", "publish_graph", "exec.publish"),
    # repro.serve
    Site("repro.serve.service", "RumorBlockingService.query", "serve.query"),
    Site("repro.serve.service", "RumorBlockingService.apply_updates", "serve.apply_updates"),
    Site("repro.serve.protocol", "process_request", "protocol.process_request"),
)

#: spans the workloads open themselves (client-side JSON and the op root).
CODEC_SPAN = "protocol.codec"
OP_SPAN = "op"

#: span names reported as per-op self time, and those also as calls.
SELF_MS = (
    "graph.csr", "graph.apply_updates", "graph.to_indexed", "datasets.load",
    "bridge.find_ends", "sketch.sample", "sketch.refresh", "sketch.stale_worlds",
    "sketch.ensure_worlds", "sketch.precision_ok", "sketch.sigma",
    "coverage.max_coverage", "ris.select", "celf.select", "greedy.sigma",
    "diffusion.run", "sim.simulate", "lcrb.evaluate", "kernels.verify",
    "exec.map", "exec.publish", "serve.query", "serve.apply_updates",
    "protocol.process_request", CODEC_SPAN,
)
CALLS = ("graph.csr", "bridge.find_ends", "greedy.sigma", "diffusion.run")

#: obs counters reported per op.
COUNTERS = (
    "sketch.worlds_sampled", "sketch.rrsets_sampled", "sketch.rrset_members_stored",
    "sketch.worlds_invalidated", "sketch.rrsets_invalidated",
    "selector.marginal_gain_calls", "selector.celf_reevaluations",
    "selector.celf_queue_hits", "sim.node_visits", "sim.edge_visits",
    "kernel.worlds", "kernel.activations", "exec.pool.created",
    "exec.publications", "exec.chunks.retried", "exec.chunks.timeout",
    "exec.degraded",
)

#: counters where more means more of the work was skipped.
HIGHER_IS_BETTER = frozenset({"selector.celf_queue_hits"})

#: derived ratios and the trace's own bookkeeping: (name, unit, better).
RATIOS = (
    ("sketch.sample.ms_per_world", "ms/world", "lower"),
    ("sketch.stale_world_frac", "ratio", "lower"),
    ("coverage.lazy_hit_rate", "ratio", "higher"),
    ("exec.worlds_per_publication", "count", "higher"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: every metric the traced run reports: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{name}.self_ms", "ms", "lower") for name in SELF_MS)
    + tuple((f"{name}.calls", "count", "lower") for name in CALLS)
    + tuple(
        (name, "count", "higher" if name in HIGHER_IS_BETTER else "lower")
        for name in COUNTERS
    )
    + RATIOS
)

#: the traced run fails when the op root keeps this share of op time.
UNATTRIBUTED_LIMIT = 0.10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span], counters: Dict[str, int], overhead_frac: float
) -> Dict[str, float]:
    """Per-op layer metrics from one run's spans and obs counters.

    ``spans`` holds every span of the traced ops; roots are the
    :data:`OP_SPAN` spans the runner opened, one per traced op.
    """
    selfs = self_times(spans)
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    items: Dict[str, int] = {}
    op_ms = root_self_ms = 0.0
    ops = 0
    for span, own in zip(spans, selfs):
        if span.parent is None:
            ops += 1
            op_ms += span.duration * 1000.0
            root_self_ms += own * 1000.0
            continue
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1
        items[span.name] = items.get(span.name, 0) + span.items
    per_op = max(ops, 1)
    values: Dict[str, float] = {}
    for name in SELF_MS:
        values[f"{name}.self_ms"] = self_ms.get(name, 0.0) / per_op
    for name in CALLS:
        values[f"{name}.calls"] = calls.get(name, 0) / per_op
    for name in COUNTERS:
        values[name] = counters.get(name, 0) / per_op
    values["sketch.sample.ms_per_world"] = _ratio(
        self_ms.get("sketch.sample", 0.0), items.get("sketch.sample", 0)
    )
    values["sketch.stale_world_frac"] = _ratio(
        counters.get("sketch.worlds_invalidated", 0), items.get("sketch.refresh", 0)
    )
    values["coverage.lazy_hit_rate"] = _ratio(
        counters.get("selector.celf_queue_hits", 0),
        counters.get("selector.marginal_gain_calls", 0),
    )
    values["exec.worlds_per_publication"] = _ratio(
        counters.get("sketch.worlds_sampled", 0), counters.get("exec.publications", 0)
    )
    values["trace.op_ms"] = op_ms / per_op
    values["trace.unattributed_frac"] = _ratio(root_self_ms, op_ms)
    values["trace.overhead_frac"] = overhead_frac
    return values

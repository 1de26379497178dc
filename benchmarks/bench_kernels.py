"""Sigma-throughput benchmarks of the batched kernel backends.

Not a paper figure — this measures the ISSUE-3 tentpole directly: σ̂
evaluations per second through :class:`repro.kernels.sigma.\
BatchedSigmaEvaluator` on the enron-small replica, once per available
backend. pytest-benchmark provides the timing statistics; a fixed,
seeded replay under the :class:`benchmarks.conftest.BenchMetrics`
collector emits the deterministic work counters (``kernel.worlds``,
``kernel.hops``, ``kernel.activations``, ``selector.sigma_evaluations``)
as ``BENCH_kernels_<backend>.json`` for the CI regression gate.

The two backends run the *same* candidate workload with the same seeds
on the same sampled worlds, so comparing their BENCH documents' wall
clocks reproduces the ≥5× acceptance measurement (``repro bench
--backend numpy`` is the CLI equivalent), and
:func:`test_backends_agree_on_the_gated_pass` enforces that their σ̂
lists and ``kernel.*``/``selector.*`` counters are identical.
"""

import pytest

from benchmarks.conftest import FAST, SCALE
from repro.algorithms.base import SelectionContext
from repro.algorithms.greedy import candidate_pool
from repro.datasets.registry import load_dataset
from repro.diffusion.opoao import OPOAOModel
from repro.kernels.registry import available_backends
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream

#: Coupled worlds per sigma evaluation (the CLI bench default is 50).
RUNS = 16 if FAST else 50

#: Candidate protectors evaluated per timing/counter pass.
CANDIDATES = 4 if FAST else 10

MAX_HOPS = 31


@pytest.fixture(scope="module")
def instance():
    dataset = load_dataset("enron-small", scale=SCALE, seed=13)
    size = dataset.communities.size(dataset.rumor_community)
    rumor_labels = draw_rumor_seeds(
        dataset.communities,
        dataset.rumor_community,
        max(2, size // 10),
        RngStream(51, name="kernels-bench"),
    )
    context = SelectionContext(
        dataset.graph, dataset.rumor_community_nodes, rumor_labels
    )
    candidates = candidate_pool(context) or candidate_pool(context, "all")
    return context, candidates[:CANDIDATES]


def make_evaluator(context, backend_name):
    return BatchedSigmaEvaluator(
        context,
        model=OPOAOModel(),
        runs=RUNS,
        max_hops=MAX_HOPS,
        rng=RngStream(13, name="kernels-sigma"),
        backend=backend_name,
    )


def sigma_sweep(evaluator, candidates):
    return [evaluator.sigma([candidate]) for candidate in candidates]


def gated_pass(context, candidates, backend_name):
    """The deterministic counter pass: a fresh evaluator (fixed seed),
    exactly one baseline + one σ̂ per candidate."""
    return sigma_sweep(make_evaluator(context, backend_name), candidates)


@pytest.mark.parametrize("backend_name", available_backends())
def test_kernels_sigma_throughput(benchmark, instance, bench_metrics,
                                  backend_name):
    context, candidates = instance
    assert candidates, "enron-small replica must yield candidate protectors"

    # Timing pass: worlds + baseline sampled once outside the timer (the
    # coupled-CRN pattern every selector uses), candidates replayed inside.
    evaluator = make_evaluator(context, backend_name)
    evaluator.baseline  # warm the world sample + baseline race
    benchmark(lambda: sigma_sweep(evaluator, candidates))

    # Deterministic counter pass for the regression gate.
    with bench_metrics.collect():
        sigmas = gated_pass(context, candidates, backend_name)
    assert all(value >= 0.0 for value in sigmas)
    bench_metrics.emit(
        f"kernels_{backend_name}",
        context={
            "backend": backend_name,
            "runs": RUNS,
            "candidates": len(candidates),
            "max_hops": MAX_HOPS,
        },
    )


def test_backends_agree_on_the_gated_pass(instance):
    """Both backends race the same worlds: equal σ̂ and work counters."""
    if "numpy" not in available_backends():
        pytest.skip("numpy backend unavailable")
    context, candidates = instance
    runs = {}
    for backend_name in ("python", "numpy"):
        registry = MetricsRegistry()
        with use_registry(registry):
            sigmas = gated_pass(context, candidates, backend_name)
        counters = {
            name: value
            for name, value in registry.counter_values().items()
            if name.startswith(("kernel.", "selector."))
        }
        assert counters.get("kernel.worlds", 0) > 0
        runs[backend_name] = (sigmas, counters)
    assert runs["python"] == runs["numpy"]

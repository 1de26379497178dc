"""Seed-determinism regression: same ``(seed, backend)`` across processes.

Each case launches the same selection + evaluation pipeline in two fresh
interpreter processes and asserts the *entire* observable result —
selector output, sigma estimates, and the deterministic metrics counters
— is byte-identical. Catches any accidental dependence on hash
randomization, dict iteration order, uncached global state, or
non-seeded RNG in either backend.
"""

import json
import subprocess
import sys

import pytest

from repro.kernels.registry import available_backends

BACKENDS = available_backends()

SCRIPT = r"""
import json
import sys

backend = sys.argv[1]
seed = int(sys.argv[2])

from repro.algorithms.base import SelectionContext
from repro.algorithms.celf import CELFGreedySelector
from repro.datasets.toy import figure2_graph
from repro.diffusion.opoao import OPOAOModel
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.obs.registry import MetricsRegistry, metrics, set_registry
from repro.rng import RngStream

set_registry(MetricsRegistry())

graph, communities, info = figure2_graph()
context = SelectionContext(
    graph, communities.members(info["rumor_community"]), info["rumor_seeds"]
)
rng = RngStream(seed, name="determinism")

selector = CELFGreedySelector(
    model=OPOAOModel(),
    runs=12,
    max_hops=12,
    rng=rng.fork("greedy"),
    backend=backend,
)
selection = selector.select(context, budget=2)

evaluator = BatchedSigmaEvaluator(
    context,
    model=OPOAOModel(),
    runs=32,
    max_hops=12,
    rng=rng.fork("sigma"),
    backend=backend,
)
sigma = evaluator.sigma(selection)
fraction = evaluator.protected_fraction(selection)

print(
    json.dumps(
        {
            "selection": [str(node) for node in selection],
            "sigma": sigma,
            "fraction": fraction,
            "counters": metrics().counter_values(),
        },
        sort_keys=True,
    )
)
"""


def run_pipeline(backend: str, seed: int) -> str:
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, backend, str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_processes_agree_exactly(backend):
    first = run_pipeline(backend, seed=2024)
    second = run_pipeline(backend, seed=2024)
    assert first == second
    payload = json.loads(first)
    assert payload["selection"]
    assert payload["counters"].get("selector.sigma_evaluations", 0) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_different_seeds_may_differ_but_stay_valid(backend):
    baseline = json.loads(run_pipeline(backend, seed=2024))
    other = json.loads(run_pipeline(backend, seed=4048))
    assert 0.0 <= other["fraction"] <= 1.0
    assert len(other["selection"]) == len(baseline["selection"])


def test_backends_pick_identical_sets_on_shared_worlds(tmp_path):
    """Cross-backend: both race the same worlds, so the whole run matches."""
    if "numpy" not in BACKENDS:
        pytest.skip("numpy backend unavailable")
    python_run = json.loads(run_pipeline("python", seed=2024))
    numpy_run = json.loads(run_pipeline("numpy", seed=2024))
    assert python_run["selection"] == numpy_run["selection"]
    assert python_run["sigma"] == numpy_run["sigma"]
    assert python_run["fraction"] == numpy_run["fraction"]
    assert python_run["counters"] == numpy_run["counters"]

"""RR-set sampling throughput of the batched sketch kernel backends.

Not a paper figure — this measures the ISSUE-9 tentpole directly:
worlds sampled per second through :func:`repro.sketch.sample_worlds` on
the enron-small replica, once per available backend. The two backends
replay the *same* seeded worlds (the kernels are bit-identical per
replica index, see :mod:`repro.sketch.kernels`), so their BENCH
documents carry identical ``sketch.*`` work counters and only the wall
clocks differ — ``BENCH_sketch_kernels_<backend>.json`` feeds the CI
regression gate while :func:`test_numpy_speedup_over_python` holds the
>=2x throughput floor in-process at steps 4 and 8 (the horizons the
serve and select workloads sample at) and 31 (the paper's), and
:func:`test_numpy_block_speedup_over_one_world_calls` holds the gain of
sampling many worlds in one call (the numpy kernel's blocks of worlds).
"""

import time

import pytest

from benchmarks.conftest import FAST, SCALE
from repro.algorithms.base import SelectionContext
from repro.datasets.registry import load_dataset
from repro.kernels import available_backends
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.rng import RngStream
from repro.sketch import sample_worlds
from repro.sketch.rrset import OPOAORRSampler
from repro.sketch.store import SketchStore

#: Random worlds raced per pass (the serve default cold start is 64).
WORLDS = 6 if FAST else 16

#: OPOAO horizon, matching the simulator benchmarks.
STEPS = 31

#: Worlds timed per backend at the short horizons, where one world
#: takes a few milliseconds.
SHORT_HORIZON_WORLDS = 24

#: Throughput floor for the vectorized backend, at every horizon.
MIN_SPEEDUP = 2.0

#: Floor for one numpy call over SHORT_HORIZON_WORLDS worlds against
#: one call per world, at steps 4.
MIN_BLOCK_SPEEDUP = 1.5

#: Timed passes per arm of the block check; the fastest one counts.
BLOCK_REPEATS = 3


@pytest.fixture(scope="module")
def instance():
    dataset = load_dataset("enron-small", scale=SCALE, seed=13)
    size = dataset.communities.size(dataset.rumor_community)
    rumor_labels = draw_rumor_seeds(
        dataset.communities,
        dataset.rumor_community,
        max(2, size // 10),
        RngStream(51, name="sketch-kernels-bench"),
    )
    return SelectionContext(
        dataset.graph, dataset.rumor_community_nodes, rumor_labels
    )


def make_sampler(context, steps=STEPS):
    return OPOAORRSampler(
        context.indexed,
        context.rumor_seed_ids(),
        context.bridge_end_ids(),
        steps=steps,
        rng=RngStream(13, name="sketch-kernels"),
    )


@pytest.mark.parametrize("backend_name", available_backends())
def test_sketch_kernels_sampling(benchmark, instance, bench_metrics,
                                 backend_name):
    # Timing pass under pytest-benchmark statistics: a fresh sampler so
    # the numpy backend pays its CSR build like a cold store would.
    benchmark.pedantic(
        lambda: sample_worlds(
            make_sampler(instance), range(WORLDS), backend=backend_name
        ),
        rounds=1,
        iterations=1,
    )

    # Deterministic counter pass for the regression gate: the kernels
    # are bit-identical per replica index, so both backends' documents
    # must carry the same sketch.* counters.
    with bench_metrics.collect():
        store = SketchStore(
            make_sampler(instance), backend=backend_name
        ).ensure_worlds(WORLDS)
    assert store.worlds == WORLDS
    bench_metrics.emit(
        f"sketch_kernels_{backend_name}",
        context={
            "backend": backend_name,
            "worlds": WORLDS,
            "steps": STEPS,
            "dataset": "enron-small",
        },
    )


@pytest.mark.parametrize("steps", [4, 8, STEPS])
def test_numpy_speedup_over_python(instance, report_result, steps):
    """The throughput floor: numpy >= 2x python on enron-small."""
    if "numpy" not in available_backends():
        pytest.skip("numpy backend unavailable")

    worlds = WORLDS if steps == STEPS else max(WORLDS, SHORT_HORIZON_WORLDS)
    sampled = {}
    timings = {}
    for backend_name in ("python", "numpy"):
        # One untimed world first, past the timed indices, so neither
        # backend pays its one-off set-up (the numpy CSR arrays) inside
        # the timed pass.
        sample_worlds(
            make_sampler(instance, steps), [worlds], backend=backend_name
        )
        started = time.perf_counter()
        sampled[backend_name] = sample_worlds(
            make_sampler(instance, steps), range(worlds), backend=backend_name
        )
        timings[backend_name] = time.perf_counter() - started

    # Same worlds bit-for-bit, or the speedup is measuring the wrong thing.
    for reference, vectorized in zip(sampled["python"], sampled["numpy"]):
        assert vectorized.index == reference.index
        assert vectorized.rr_sets == reference.rr_sets
        assert vectorized.footprint == reference.footprint

    speedup = timings["python"] / max(timings["numpy"], 1e-9)
    text = (
        f"sketch kernels, enron-small scale={SCALE}, "
        f"{worlds} worlds, steps={steps}\n"
        f"  python {timings['python']:.3f}s  "
        f"numpy {timings['numpy']:.3f}s  speedup {speedup:.2f}x"
    )
    report_result(
        text,
        f"sketch_kernels_speedup_steps{steps}",
        payload={
            "dataset": "enron-small",
            "scale": SCALE,
            "worlds": worlds,
            "steps": steps,
            "python_seconds": timings["python"],
            "numpy_seconds": timings["numpy"],
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"numpy sampling speedup {speedup:.2f}x < {MIN_SPEEDUP}x over python "
        f"at steps {steps}"
    )


def test_numpy_block_speedup_over_one_world_calls(instance, report_result):
    """One numpy call over 24 worlds beats 24 one-world calls by 1.5x.

    The numpy kernel samples a call's worlds in blocks, one pass of
    array expressions per block; a one-world call pays that whole pass
    for a single world. Both arms draw the same worlds bit for bit.
    """
    if "numpy" not in available_backends():
        pytest.skip("numpy backend unavailable")

    steps = 4
    worlds = SHORT_HORIZON_WORLDS
    sampler = make_sampler(instance, steps)
    # Build the numpy CSR arrays outside the timed passes.
    sample_worlds(sampler, [worlds], backend="numpy")

    def one_call():
        return sample_worlds(sampler, range(worlds), backend="numpy")

    def one_call_per_world():
        return [
            sample_worlds(sampler, [index], backend="numpy")[0]
            for index in range(worlds)
        ]

    timings = {}
    sampled = {}
    for arm in (one_call, one_call_per_world):
        best = float("inf")
        for _ in range(BLOCK_REPEATS):
            started = time.perf_counter()
            sampled[arm.__name__] = arm()
            best = min(best, time.perf_counter() - started)
        timings[arm.__name__] = best

    for single, blocked in zip(
        sampled["one_call_per_world"], sampled["one_call"]
    ):
        assert blocked.index == single.index
        assert blocked.rr_sets == single.rr_sets
        assert blocked.footprint == single.footprint

    speedup = timings["one_call_per_world"] / max(timings["one_call"], 1e-9)
    text = (
        f"sketch kernels, enron-small scale={SCALE}, "
        f"{worlds} worlds, steps={steps}, numpy\n"
        f"  one call {timings['one_call']:.4f}s  "
        f"one call per world {timings['one_call_per_world']:.4f}s  "
        f"speedup {speedup:.2f}x"
    )
    report_result(
        text,
        f"sketch_kernels_block_speedup_steps{steps}",
        payload={
            "dataset": "enron-small",
            "scale": SCALE,
            "worlds": worlds,
            "steps": steps,
            "one_call_seconds": timings["one_call"],
            "one_call_per_world_seconds": timings["one_call_per_world"],
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_BLOCK_SPEEDUP, (
        f"one call over {worlds} worlds is {speedup:.2f}x faster than one "
        f"call per world, < {MIN_BLOCK_SPEEDUP}x at steps {steps}"
    )

"""Throughput and determinism benchmark of the repro.exec worker pool.

Measures the warm-pool executor: σ̂ candidate rounds fanned out over a
long-lived :class:`~repro.exec.pool.ParallelExecutor` on the enron-small
replica under OPOAO. The timing pass separates **cold start** (the first
map on a fresh executor, which pays worker spawn + graph publication +
per-worker setup) from **warm steady state** (repeat maps on the same
executor, best of ``WARM_REPEATS``, where workers reuse their cached
worlds). Speedup and parallel efficiency for both regimes land in the
emitted document's ``context``; efficiency is measured against the
*attainable* parallelism ``min(TIMING_WORKERS, cpu_count)`` so the
number is meaningful on throttled CI runners. Wall clock is
runner-dependent and **not** gated.

The regression gate consumes the deterministic counter pass instead: one
shared two-worker executor drives the σ̂ round *and* the Monte-Carlo
replica sweep under the :class:`benchmarks.conftest.BenchMetrics`
collector, and the pass asserts ``exec.pool.created == 1`` and
``exec.publications == 1`` — one CLI-shaped invocation, one pool, one
publication. The execution layer's contract makes the merged work
counters equal a serial run's (asserted here, together with
bit-identical σ̂ values), so the counters in ``BENCH_parallel.json`` are
exactly as stable as the serial benchmarks'.
"""

import os
import time

import pytest

from benchmarks.conftest import FAST, SCALE
from repro.algorithms.base import SelectionContext
from repro.algorithms.greedy import candidate_pool
from repro.datasets.registry import load_dataset
from repro.diffusion.base import SeedSets
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.exec.pool import ParallelExecutor
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.rng import RngStream

#: Coupled worlds per sigma evaluation.
RUNS = 16 if FAST else 50

#: Candidate protectors per sigma round.
CANDIDATES = 8 if FAST else 16

#: Monte-Carlo replicas for the simulator pass.
REPLICAS = 12 if FAST else 48

MAX_HOPS = 31

#: Worker count for the timing comparison (the acceptance measurement).
TIMING_WORKERS = 4

#: Warm steady-state passes on the same executor (best-of timing).
WARM_REPEATS = 3

#: Worker count for the gated deterministic counter pass.
GATE_WORKERS = 2


@pytest.fixture(scope="module")
def instance():
    dataset = load_dataset("enron-small", scale=SCALE, seed=13)
    size = dataset.communities.size(dataset.rumor_community)
    rumor_labels = draw_rumor_seeds(
        dataset.communities,
        dataset.rumor_community,
        max(2, size // 10),
        RngStream(51, name="parallel-bench"),
    )
    context = SelectionContext(
        dataset.graph, dataset.rumor_community_nodes, rumor_labels
    )
    candidates = candidate_pool(context) or candidate_pool(context, "all")
    return context, candidates[:CANDIDATES]


def make_evaluator(context, executor=None):
    return BatchedSigmaEvaluator(
        context,
        model=OPOAOModel(),
        runs=RUNS,
        max_hops=MAX_HOPS,
        rng=RngStream(13, name="parallel-sigma"),
        backend="python",
        executor=executor,
    )


def timed(function):
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def test_parallel_sigma_throughput(instance, bench_metrics):
    context, candidates = instance
    assert candidates, "enron-small replica must yield candidate protectors"
    sets = [[candidate] for candidate in candidates]

    # Timing pass: worlds + baseline warmed outside the timed region in
    # both legs, exactly like the serial kernel benchmark.
    serial_evaluator = make_evaluator(context)
    serial_evaluator.baseline
    serial_sigmas, serial_seconds = timed(
        lambda: serial_evaluator.sigma_many(sets)
    )

    # Cold start = first map on a fresh executor: pays worker spawn, the
    # graph publication, and per-worker world setup. Warm steady state =
    # repeat maps on the SAME executor: workers reuse cached worlds and
    # the pinned publication, so only chunk shipping remains.
    with ParallelExecutor(TIMING_WORKERS) as executor:
        parallel_evaluator = make_evaluator(context, executor=executor)
        parallel_evaluator.baseline
        cold_sigmas, cold_seconds = timed(
            lambda: parallel_evaluator.sigma_many(sets)
        )
        warm_seconds = cold_seconds
        for _ in range(WARM_REPEATS):
            warm_sigmas, elapsed = timed(
                lambda: parallel_evaluator.sigma_many(sets)
            )
            assert warm_sigmas == serial_sigmas
            warm_seconds = min(warm_seconds, elapsed)
    assert cold_sigmas == serial_sigmas  # bit-identical, per contract

    attainable = max(1, min(TIMING_WORKERS, os.cpu_count() or 1))
    cold_speedup = serial_seconds / max(cold_seconds, 1e-9)
    warm_speedup = serial_seconds / max(warm_seconds, 1e-9)

    # Deterministic counter pass for the regression gate: ONE shared
    # executor drives the sigma round and the replica sweep, mirroring a
    # CLI invocation. The merged work counters equal a serial run's, so
    # the gate sees stable numbers; the exec.* counters additionally pin
    # the amortization contract (one pool, one publication).
    with bench_metrics.collect():
        with ParallelExecutor(GATE_WORKERS) as gate_executor:
            gated = make_evaluator(context, executor=gate_executor)
            gated_sigmas = gated.sigma_many(sets)
            simulator = MonteCarloSimulator(
                OPOAOModel(),
                runs=REPLICAS,
                max_hops=MAX_HOPS,
                executor=gate_executor,
            )
            aggregate = simulator.simulate(
                context.indexed,
                SeedSets(rumors=context.rumor_seed_ids()),
                rng=RngStream(29, name="parallel-mc"),
            )
    assert gated_sigmas == serial_sigmas
    gate_counters = bench_metrics.registry.counter_values()
    assert gate_counters.get("exec.pool.created") == 1, gate_counters
    assert gate_counters.get("exec.publications") == 1, gate_counters
    serial_aggregate = MonteCarloSimulator(
        OPOAOModel(), runs=REPLICAS, max_hops=MAX_HOPS
    ).simulate(
        context.indexed,
        SeedSets(rumors=context.rumor_seed_ids()),
        rng=RngStream(29, name="parallel-mc"),
    )
    assert aggregate.infected_per_hop == serial_aggregate.infected_per_hop

    bench_metrics.emit(
        "parallel",
        context={
            "backend": "python",
            "runs": RUNS,
            "candidates": len(candidates),
            "replicas": REPLICAS,
            "max_hops": MAX_HOPS,
            "timing_workers": TIMING_WORKERS,
            "attainable_workers": attainable,
            "warm_repeats": WARM_REPEATS,
            "gate_workers": GATE_WORKERS,
            "serial_seconds": serial_seconds,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_speedup": cold_speedup,
            "cold_efficiency": cold_speedup / attainable,
            # The acceptance numbers: warm steady state on the reused
            # pool, efficiency against attainable parallelism.
            "speedup": warm_speedup,
            "efficiency": warm_speedup / attainable,
        },
    )

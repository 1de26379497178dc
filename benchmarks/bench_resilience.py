"""Fault-injection and checkpoint/resume benchmark of the worker pool.

Measures the ISSUE-5 tentpole: `ParallelExecutor`'s failure semantics
(per-chunk timeouts, deterministic retries, degradation to inline) and
the checkpoint/resume layer, exercised with *injected* faults so the
recovery paths run on every CI pass, not only when a runner misbehaves.

Every scenario asserts the core contract — faulted results equal the
unfaulted serial results bit-for-bit — and the emitted counters are
deterministic functions of the fault plans (one retry per injected
raise, one timeout per killed worker, ...), so ``BENCH_resilience.json``
gates under ``benchmarks/check_regression.py`` exactly like the other
benches. Wall clock here is dominated by the *deliberate* timeout waits
and is informational only.
"""

from repro.diffusion.base import SeedSets
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator
from repro.exec.pool import ParallelExecutor, split_chunks
from repro.exec.resilience import FaultPlan
from repro.graph.digraph import DiGraph
from repro.rng import RngStream

from benchmarks.conftest import FAST

#: Items per executor scenario (chunked over two workers).
ITEMS = 8 if FAST else 24

#: Monte-Carlo replicas for the checkpoint/resume scenario.
REPLICAS = 8 if FAST else 32

#: Generous deadline for the kill scenario: the surviving chunk must
#: finish well inside it for the timeout counter to be deterministic.
KILL_TIMEOUT = 2.0

#: Tight deadline for the repeated-hang scenario (the injected hang
#: sleeps far longer, so every faulted attempt times out exactly once).
HANG_TIMEOUT = 0.75


# Worker functions must be module-level so the pool can pickle them.
def null_setup(graph, payload):
    return payload


def scale_task(state, chunk):
    from repro.obs.registry import metrics

    registry = metrics()
    if registry.enabled:
        registry.counter("resilience.items").add(len(chunk))
    return [state * item for item in chunk]


def run_scenario(faults, timeout=None, retries=None):
    """Run the two-worker workload under ``faults``; returns the result."""
    chunks = split_chunks(list(range(ITEMS)), 2)
    return ParallelExecutor(
        2,
        timeout=timeout,
        retries=retries,
        faults=FaultPlan.parse(faults) if faults else FaultPlan([]),
    ).map_chunks(null_setup, scale_task, 3, chunks)


def test_resilience(bench_metrics, tmp_path):
    serial = ParallelExecutor(1).map_chunks(
        null_setup, scale_task, 3, split_chunks(list(range(ITEMS)), 2)
    )

    # Checkpoint/resume scenario: a replica sweep interrupted halfway,
    # then resumed to completion — outside collect() for the full run.
    graph = DiGraph.from_edges(
        [(0, i) for i in range(1, 8)] + [(i, i + 7) for i in range(1, 6)]
    ).to_indexed()
    seeds = SeedSets(rumors=[0])

    def simulator(executor, runs, checkpoint=None):
        return MonteCarloSimulator(
            OPOAOModel(),
            runs=runs,
            max_hops=8,
            executor=executor,
            checkpoint=checkpoint,
        )

    checkpoint = tmp_path / "bench.ckpt"
    with ParallelExecutor(2) as executor:
        uninterrupted = simulator(executor, REPLICAS).simulate(
            graph, seeds, rng=RngStream(17, name="resilience-mc")
        )
        simulator(executor, REPLICAS // 2, checkpoint).simulate(
            graph, seeds, rng=RngStream(17, name="resilience-mc")
        )

    with bench_metrics.collect():
        # Injected transient raise: one deterministic retry, no timeout.
        retried = run_scenario("raise@1")
        # Killed worker: detected at the chunk deadline, then retried.
        survived = run_scenario("kill@0", timeout=KILL_TIMEOUT)
        # Persistent hang: retry budget spent, chunk degrades to inline.
        degraded = run_scenario("hang@0x2:30", timeout=HANG_TIMEOUT, retries=1)
        # Resume the interrupted sweep out to the full replica count, on
        # a fresh pool so its creation and publication are counted.
        with ParallelExecutor(2) as executor:
            resumed = simulator(executor, REPLICAS, checkpoint).simulate(
                graph, seeds, rng=RngStream(17, name="resilience-mc")
            )

    assert retried == survived == degraded == serial
    assert resumed.infected_per_hop == uninterrupted.infected_per_hop
    assert resumed.final_infected.mean == uninterrupted.final_infected.mean

    counters = bench_metrics.registry.counter_values()
    assert counters["exec.chunks.retried"] == 3  # one per faulted scenario
    assert counters["exec.chunks.timeout"] == 3  # kill x1 + hang x2
    assert counters["exec.degraded"] == 1
    assert counters["exec.resumed_rounds"] == REPLICAS // 2
    assert counters["resilience.items"] == 3 * ITEMS

    bench_metrics.emit(
        "resilience",
        context={
            "items": ITEMS,
            "replicas": REPLICAS,
            "kill_timeout": KILL_TIMEOUT,
            "hang_timeout": HANG_TIMEOUT,
            "scenarios": ["raise@1", "kill@0", "hang@0x2:30", "resume"],
        },
    )

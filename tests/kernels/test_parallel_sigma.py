"""Two-worker vs serial bit-identity for batched σ̂ and the greedy selectors.

The execution layer's contract (docs/parallel.md): a configured worker
pool changes wall-clock time only. Values, selection order, and merged
work counters must be byte-for-byte what the serial path produces.
"""

import pytest

from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.greedy import GreedySelector, candidate_pool
from repro.diffusion.doam import DOAMModel
from repro.diffusion.opoao import OPOAOModel
from repro.exec.pool import ParallelExecutor
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream


def make_evaluator(context, executor=None, runs=12, seed=77):
    return BatchedSigmaEvaluator(
        context,
        model=OPOAOModel(),
        runs=runs,
        max_hops=8,
        rng=RngStream(seed, name="parallel-sigma"),
        backend="python",
        executor=executor,
    )


def counters_only(registry):
    """Counter totals, dropping timers and exec-infrastructure counters.

    Wall-clock timers are never deterministic, and ``exec.*`` counters
    record retry/timeout/degradation *events* (present only when the CI
    fault-injection leg runs with ``REPRO_EXEC_FAULTS`` set) — the
    determinism contract covers work counters, not fault bookkeeping.
    """
    return {
        name: value
        for name, value in registry.counter_values().items()
        if not name.startswith("time.") and not name.startswith("exec.")
    }


class TestSigmaManyBitIdentity:
    def test_two_workers_match_serial_loop(self, fig2_context, two_workers):
        serial = make_evaluator(fig2_context)
        parallel = make_evaluator(fig2_context, two_workers)
        candidates = candidate_pool(fig2_context)
        sets = [[node] for node in candidates]
        expected = [serial.sigma(single) for single in sets]
        assert parallel.sigma_many(sets) == expected
        assert parallel.evaluations == serial.evaluations == len(sets)

    def test_sigma_many_serial_path_matches_loop(self, fig2_context):
        batched = make_evaluator(fig2_context)
        looped = make_evaluator(fig2_context)
        sets = [[node] for node in candidate_pool(fig2_context)]
        assert batched.sigma_many(sets) == [looped.sigma(s) for s in sets]

    def test_multi_node_sets(self, fig2_context, two_workers):
        pool = candidate_pool(fig2_context)
        sets = [pool[:2], pool[1:3], pool[:1]]
        serial = make_evaluator(fig2_context).sigma_many(sets)
        parallel = make_evaluator(fig2_context, two_workers).sigma_many(sets)
        assert parallel == serial

    def test_deterministic_model(self, fig2_context, two_workers):
        sets = [[node] for node in candidate_pool(fig2_context)]
        serial = BatchedSigmaEvaluator(
            fig2_context, model=DOAMModel(), backend="python"
        ).sigma_many(sets)
        parallel = BatchedSigmaEvaluator(
            fig2_context, model=DOAMModel(), backend="python",
            executor=two_workers,
        ).sigma_many(sets)
        assert parallel == serial

    def test_empty_input(self, fig2_context, two_workers):
        assert make_evaluator(fig2_context, two_workers).sigma_many([]) == []

    def test_pickle_share_mode_matches(self, fig2_context, two_workers):
        sets = [[node] for node in candidate_pool(fig2_context)]
        auto = make_evaluator(fig2_context, two_workers).sigma_many(sets)
        with ParallelExecutor(2, share="pickle") as executor:
            pickled = make_evaluator(fig2_context, executor).sigma_many(sets)
        assert pickled == auto


class TestCounterParity:
    def test_merged_counters_equal_serial(self, fig2_context, two_workers):
        sets = [[node] for node in candidate_pool(fig2_context)]
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            evaluator = make_evaluator(fig2_context)
            serial_values = [evaluator.sigma(single) for single in sets]
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry):
            parallel = make_evaluator(fig2_context, two_workers)
            parallel_values = parallel.sigma_many(sets)
        assert parallel_values == serial_values
        assert counters_only(parallel_registry) == counters_only(serial_registry)


class TestSelectorParity:
    def test_greedy_selection_identical(self, fig2_context, two_workers):
        def selector(executor):
            return GreedySelector(
                runs=10,
                max_hops=8,
                rng=RngStream(3, name="greedy-par"),
                backend="python",
                executor=executor,
            )

        serial = selector(None).select(fig2_context, budget=2)
        parallel = selector(two_workers).select(fig2_context, budget=2)
        assert parallel == serial
        assert len(parallel) == 2

    def test_celf_selection_identical(self, fig2_context, two_workers):
        def selector(executor):
            return CELFGreedySelector(
                runs=10,
                max_hops=8,
                rng=RngStream(3, name="celf-par"),
                backend="python",
                executor=executor,
            )

        serial = selector(None).select(fig2_context, budget=2)
        parallel = selector(two_workers).select(fig2_context, budget=2)
        assert parallel == serial

    def test_celf_matches_exhaustive_greedy_with_workers(
        self, fig2_context, two_workers
    ):
        greedy = GreedySelector(
            runs=10,
            max_hops=8,
            rng=RngStream(3, name="match"),
            backend="python",
            executor=two_workers,
        ).select(fig2_context, budget=2)
        celf = CELFGreedySelector(
            runs=10,
            max_hops=8,
            rng=RngStream(3, name="match"),
            backend="python",
            executor=two_workers,
        ).select(fig2_context, budget=2)
        assert celf == greedy


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _numpy_available(), reason="NumPy backend absent")
class TestNumpyBackendParity:
    def test_two_workers_match_serial(self, fig2_context, two_workers):
        sets = [[node] for node in candidate_pool(fig2_context)]

        def evaluator(executor):
            return BatchedSigmaEvaluator(
                fig2_context,
                model=OPOAOModel(),
                runs=12,
                max_hops=8,
                rng=RngStream(9, name="np-par"),
                backend="numpy",
                executor=executor,
            )

        parallel = evaluator(two_workers).sigma_many(sets)
        assert parallel == evaluator(None).sigma_many(sets)

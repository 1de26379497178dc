"""Warm-pool lifecycle tests: executor reuse, republication, auto-tuned
chunks, close/finalize cleanup, and one pool per CLI invocation."""

import gc
import json

import pytest

from repro.exec import shm as shm_module
from repro.exec.pool import MAX_CHUNKS_PER_WORKER, ParallelExecutor
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry, use_registry


# Worker functions must be module-level so the pool can pickle them.
def null_setup(graph, payload):
    return payload


def scale_task(state, chunk):
    return [state * item for item in chunk]


def counting_task(state, chunk):
    from repro.obs.registry import metrics

    registry = metrics()
    if registry.enabled:
        registry.counter("test.items").add(len(chunk))
    return [state + item for item in chunk]


def degree_setup(graph, payload):
    return graph


def degree_task(graph, chunk):
    return [graph.out_degree(node) for node in chunk]


def make_chain(size):
    graph = DiGraph()
    for node in range(size - 1):
        graph.add_edge(node, node + 1)
    return graph.to_indexed()


class TestExecutorReuse:
    def test_reuse_matches_per_call_pools_across_graphs(self):
        """Two maps on different graphs over ONE executor: bit-identical
        to two per-call executors, one pool, two publications."""
        first_graph, second_graph = make_chain(6), make_chain(9)
        first_chunks = [[0, 1], [2, 3], [4, 5]]
        second_chunks = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        with ParallelExecutor(2) as throwaway:
            fresh_first = throwaway.map_chunks(
                degree_setup, degree_task, None, first_chunks, graph=first_graph
            )
        with ParallelExecutor(2) as throwaway:
            fresh_second = throwaway.map_chunks(
                degree_setup, degree_task, None, second_chunks, graph=second_graph
            )
        registry = MetricsRegistry()
        with use_registry(registry):
            with ParallelExecutor(2) as executor:
                reused_first = executor.map_chunks(
                    degree_setup, degree_task, None, first_chunks,
                    graph=first_graph,
                )
                reused_second = executor.map_chunks(
                    degree_setup, degree_task, None, second_chunks,
                    graph=second_graph,
                )
        assert reused_first == fresh_first
        assert reused_second == fresh_second
        counters = registry.counter_values()
        assert counters["exec.pool.created"] == 1
        # The graph identity changed between maps -> republished once.
        assert counters["exec.publications"] == 2

    def test_same_graph_pins_one_publication(self):
        graph = make_chain(8)
        registry = MetricsRegistry()
        with use_registry(registry):
            with ParallelExecutor(2) as executor:
                first = executor.map_chunks(
                    degree_setup, degree_task, None, [[0, 1], [2, 3]],
                    graph=graph,
                )
                second = executor.map_chunks(
                    degree_setup, degree_task, None, [[4, 5], [6, 7]],
                    graph=graph,
                )
        assert first == [[1, 1], [1, 1]]
        assert second == [[1, 1], [1, 0]]
        counters = registry.counter_values()
        assert counters["exec.pool.created"] == 1
        assert counters["exec.publications"] == 1

    def test_in_place_mutation_forces_republication(self):
        """apply_updates bumps graph.version; the next map must publish
        the mutated adjacency instead of reusing the pinned publication
        (same object identity, different contents)."""
        graph = make_chain(8)
        registry = MetricsRegistry()
        chunks = [[0, 1], [2, 3]]
        with use_registry(registry):
            with ParallelExecutor(2) as executor:
                before = executor.map_chunks(
                    degree_setup, degree_task, None, chunks, graph=graph
                )
                graph.apply_updates([(0, 2)], [])
                after = executor.map_chunks(
                    degree_setup, degree_task, None, chunks, graph=graph
                )
        assert before == [[1, 1], [1, 1]]
        assert after == [[2, 1], [1, 1]]  # node 0 gained an out-edge
        counters = registry.counter_values()
        assert counters["exec.pool.created"] == 1  # pool stays warm
        assert counters["exec.publications"] == 2  # graph was republished

    def test_close_is_idempotent_and_not_terminal(self):
        executor = ParallelExecutor(2)
        chunks = [[1, 2], [3]]
        before = executor.map_chunks(null_setup, scale_task, 2, chunks)
        executor.close()
        executor.close()  # second close must be a no-op
        # close() returns the executor to its cold state; a later map
        # lazily rebuilds the pool and produces the same results.
        after = executor.map_chunks(null_setup, scale_task, 2, chunks)
        assert after == before == [[2, 4], [6]]
        executor.close()

    def test_dropped_executor_unlinks_shm_segments(self):
        """The weakref.finalize backstop must release the pinned
        publication (and its /dev/shm segments) without close()."""
        if shm_module.np is None:
            pytest.skip("shared memory path requires NumPy")
        from multiprocessing import shared_memory

        graph = make_chain(12)
        executor = ParallelExecutor(2, share="shm")
        executor.map_chunks(
            degree_setup, degree_task, None, [[0, 1], [2, 3]], graph=graph
        )
        names = executor._publication.handle.segment_names
        del executor
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestChunkAutoTuning:
    def test_map_items_flattens_in_item_order(self):
        items = list(range(25))
        with ParallelExecutor(2) as executor:
            result = executor.map_items(null_setup, scale_task, 3, items)
        assert result == [3 * item for item in items]

    def test_pooled_map_records_per_item_cost(self):
        items = list(range(16))
        with ParallelExecutor(2) as executor:
            executor.map_items(null_setup, scale_task, 3, items)
            assert executor._item_costs[(null_setup, scale_task)] > 0.0

    def test_plan_targets_chunk_seconds_with_bounds(self):
        executor = ParallelExecutor(2)
        items = list(range(40))
        key = (null_setup, scale_task)
        # 0.05s target / 0.01s per item = 5 items per chunk -> 8 chunks.
        executor._item_costs[key] = 0.01
        chunks = executor._plan_chunks(null_setup, scale_task, items, 2)
        assert [item for chunk in chunks for item in chunk] == items
        assert len(chunks) == 8
        # Very cheap items: floored at one chunk per worker.
        executor._item_costs[key] = 1e-9
        assert len(executor._plan_chunks(null_setup, scale_task, items, 2)) == 2
        # Very expensive items: ceilinged at MAX_CHUNKS_PER_WORKER.
        executor._item_costs[key] = 10.0
        chunks = executor._plan_chunks(null_setup, scale_task, items, 2)
        assert len(chunks) == 2 * MAX_CHUNKS_PER_WORKER
        # Serial plans are never split at all.
        assert executor._plan_chunks(null_setup, scale_task, items, 1) == [items]
        executor.close()

    def test_tuned_chunks_keep_results_and_counters_serial_identical(self):
        items = list(range(30))
        expected = [1 + item for item in items]
        registry = MetricsRegistry()
        with use_registry(registry):
            with ParallelExecutor(2) as executor:
                first = executor.map_items(null_setup, counting_task, 1, items)
                # The second map runs under tuned chunk sizes; results
                # and merged counters must not notice.
                second = executor.map_items(null_setup, counting_task, 1, items)
        assert first == expected
        assert second == expected
        assert registry.counter_values()["test.items"] == 2 * len(items)


class TestOnePoolPerInvocation:
    def test_cli_run_creates_one_pool_and_one_publication(self, tmp_path):
        """Selection and evaluation of one ``repro simulate --workers``
        run share the invocation's executor (docs/cli.md)."""
        from repro.cli import main

        path = tmp_path / "metrics.json"
        argv = [
            "simulate",
            "--dataset", "enron-small",
            "--scale", "0.05",
            "--seed", "13",
            "--algorithm", "ris-greedy",
            "--model", "opoao",
            "--runs", "16",
            "--hops", "8",
            "--epsilon", "0.3",
            "--delta", "0.1",
            "--workers", "2",
            "--metrics-out", str(path),
        ]
        assert main(argv) == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["exec.pool.created"] == 1
        assert counters["exec.publications"] == 1

"""Concurrent queries: bit-identical to serial, counters merge exactly.

The service's asyncio wrappers serialise on one FIFO lock, so N
concurrent ``query_async`` calls must return exactly what the same N
calls return when issued serially in submission order — including with
a shared warm pool underneath, over both graph publication paths
(``pickle`` always; ``shm`` when NumPy is present).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exec import shm as shm_module
from repro.exec.pool import ParallelExecutor
from repro.graph.generators import planted_partition
from repro.obs.registry import MetricsRegistry, use_registry
from repro.rng import RngStream
from repro.serve import RumorBlockingService


def build_network(seed: int = 5):
    digraph, membership = planted_partition(
        [15, 15, 15], 0.35, 0.03, RngStream(seed)
    )
    indexed = digraph.to_indexed()
    community = sorted(
        indexed.indices(n for n, c in membership.items() if c == 0)
    )
    return indexed, community


def build_service(executor=None):
    graph, community = build_network()
    service = RumorBlockingService(
        graph,
        community,
        steps=6,
        seed=13,
        initial_worlds=16,
        max_worlds=32,
        executor=executor,
    )
    return service, community


QUERY = dict(budget=3, epsilon=0.3, delta=0.1)


def plan(community):
    """Deterministic mixed workload: 6 queries over 3 seed sets."""
    seed_sets = [community[:1], community[:2], community[1:3]]
    return [seed_sets[i % 3] for i in range(6)]


def run_serial(service, community):
    return [service.query(seeds, **QUERY) for seeds in plan(community)]


def run_concurrent(service, community):
    async def scenario():
        return await asyncio.gather(
            *(service.query_async(seeds, **QUERY) for seeds in plan(community))
        )

    return asyncio.run(scenario())


def strip_timing(result):
    return {k: v for k, v in result.items()}


class TestConcurrentEqualsSerial:
    def test_answers_bit_identical(self):
        serial_service, community = build_service()
        concurrent_service, _ = build_service()
        serial = run_serial(serial_service, community)
        concurrent = run_concurrent(concurrent_service, community)
        assert [strip_timing(r) for r in concurrent] == [
            strip_timing(r) for r in serial
        ]

    def test_merged_counters_equal_serial(self):
        """Work counters are a pure function of the workload, not the
        interleaving: the concurrent run's registry equals the serial
        run's registry on every serve.* and sketch sampling counter."""
        serial_registry = MetricsRegistry()
        concurrent_registry = MetricsRegistry()
        serial_service, community = build_service()
        concurrent_service, _ = build_service()
        with use_registry(serial_registry):
            run_serial(serial_service, community)
        with use_registry(concurrent_registry):
            run_concurrent(concurrent_service, community)
        serial_counts = serial_registry.counter_values()
        concurrent_counts = concurrent_registry.counter_values()
        compared = [
            name
            for name in serial_counts
            if name.startswith(("serve.", "sketch."))
        ]
        assert compared, "expected serve.* counters to be recorded"
        for name in compared:
            assert concurrent_counts.get(name) == serial_counts[name], name
        assert serial_counts["serve.queries"] == 6
        assert serial_counts["serve.queries.cold"] == 3

    def test_interleaved_updates_serialise_in_submission_order(self):
        """query/update/query submitted concurrently resolve in FIFO
        order, so the trailing query sees the mutated graph."""

        def mutation(service):
            graph = service.graph
            tail = next(t for t in range(graph.node_count) if graph.out[t])
            return [(tail, graph.out[tail][0])]

        async def scenario(service, community):
            seeds = community[:2]
            return await asyncio.gather(
                service.query_async(seeds, **QUERY),
                service.apply_updates_async([], mutation(service)),
                service.query_async(seeds, **QUERY),
            )

        concurrent_service, community = build_service()
        before, touched, after = asyncio.run(
            scenario(concurrent_service, community)
        )
        serial_service, _ = build_service()
        seeds = community[:2]
        serial_before = serial_service.query(seeds, **QUERY)
        serial_touched = serial_service.apply_updates(
            [], mutation(serial_service)
        )
        serial_after = serial_service.query(seeds, **QUERY)
        assert before == serial_before
        assert touched == serial_touched
        assert after == serial_after
        assert after["graph_version"] == 1


class TestPublicationPaths:
    """The shared warm pool underneath must not perturb answers, and
    every seed set's store samples on that one pool and publication."""

    def check_executor_matches_inline(self, share):
        inline_service, community = build_service()
        inline = run_serial(inline_service, community)
        registry = MetricsRegistry()
        with use_registry(registry):
            with ParallelExecutor(workers=2, share=share) as executor:
                pooled_service, _ = build_service(executor=executor)
                pooled = run_concurrent(pooled_service, community)
        assert [strip_timing(r) for r in pooled] == [
            strip_timing(r) for r in inline
        ]
        counters = registry.counter_values()
        assert counters["exec.pool.created"] == 1
        assert counters["exec.publications"] == 1

    def test_pickle_publication_path(self):
        self.check_executor_matches_inline("pickle")

    def test_shm_publication_path(self):
        if shm_module.np is None:
            pytest.skip("shm publication requires NumPy")
        self.check_executor_matches_inline("shm")

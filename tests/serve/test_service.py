"""RumorBlockingService: warm-state reuse, lazy reconcile, validation.

The core contract: a warm service answering after edge updates returns
exactly what a cold service built on the mutated graph would return —
the incremental path (footprint refresh or B-change rebuild) is an
optimisation, never a semantic change.
"""

from __future__ import annotations

import pytest

from repro.errors import NodeNotFoundError, SeedError, ValidationError
from repro.graph.generators import planted_partition
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream
from repro.serve import RumorBlockingService
from repro.sketch import kernels


def build_network(seed: int = 5):
    digraph, membership = planted_partition(
        [15, 15, 15], 0.35, 0.03, RngStream(seed)
    )
    indexed = digraph.to_indexed()
    community = sorted(
        indexed.indices(n for n, c in membership.items() if c == 0)
    )
    return indexed, community


def build_service(**overrides):
    graph, community = build_network()
    kwargs = dict(
        steps=6, seed=13, initial_worlds=16, max_worlds=32, epsilon=None
    )
    kwargs.pop("epsilon")
    kwargs.update(overrides)
    return RumorBlockingService(graph, community, **kwargs), community


QUERY = dict(budget=3, epsilon=0.3, delta=0.1)


class TestWarmReuse:
    def test_cold_then_warm_identical_and_free(self):
        service, community = build_service()
        seeds = community[:2]
        first = service.query(seeds, **QUERY)
        second = service.query(seeds, **QUERY)
        assert first["cold"] is True
        assert second["cold"] is False
        assert second["rrsets_sampled"] == 0
        assert second["blockers"] == first["blockers"]
        assert second["sigma"] == first["sigma"]
        assert second["worlds"] == first["worlds"]

    def test_warm_query_never_enters_the_sampler(self, monkeypatch):
        """A store already holding the worlds asked for returns at once:
        no kernel call (not even an empty one), and only real growth
        counts as a doubling."""
        calls = []
        sample_worlds = kernels.sample_worlds

        def counting(sampler, indices, backend=None):
            calls.append(list(indices))
            return sample_worlds(sampler, indices, backend=backend)

        monkeypatch.setattr(kernels, "sample_worlds", counting)
        service, community = build_service()
        # ε this tight is never met, so the cold query grows to max_worlds.
        query = dict(QUERY, epsilon=0.01)
        with use_registry(MetricsRegistry()) as registry:
            cold = service.query(community[:2], **query)
            cold_calls = list(calls)
            assert registry.counter_values()["sketch.store_doublings"] == 1
            warm = service.query(community[:2], **query)
            assert registry.counter_values()["sketch.store_doublings"] == 1
        assert cold["worlds"] == warm["worlds"] == 32
        assert cold_calls == [list(range(16)), list(range(16, 32))]
        assert calls == cold_calls

    def test_seed_key_normalises_order_and_duplicates(self):
        service, community = build_service()
        a, b = community[0], community[1]
        service.query([a, b], **QUERY)
        follow = service.query([b, a, b], **QUERY)
        assert follow["cold"] is False
        assert len(service.stats()["instances"]) == 1

    def test_distinct_seed_sets_get_distinct_instances(self):
        service, community = build_service()
        service.query(community[:1], **QUERY)
        service.query(community[:2], **QUERY)
        assert len(service.stats()["instances"]) == 2

    def test_query_order_does_not_change_answers(self):
        """Per-instance RNG derives from (service seed, seed ids) alone."""
        service_ab, community = build_service()
        service_ba, _ = build_service()
        seeds_a, seeds_b = community[:1], community[:2]
        first_a = service_ab.query(seeds_a, **QUERY)
        service_ab.query(seeds_b, **QUERY)
        service_ba.query(seeds_b, **QUERY)
        second_a = service_ba.query(seeds_a, **QUERY)
        assert first_a["blockers"] == second_a["blockers"]
        assert first_a["sigma"] == second_a["sigma"]


class TestDynamicUpdates:
    def mutate(self, service):
        graph = service.graph
        tail = next(t for t in range(graph.node_count) if graph.out[t])
        return service.apply_updates([], [(tail, graph.out[tail][0])])

    def test_apply_updates_records_pending(self):
        service, community = build_service()
        service.query(community[:2], **QUERY)
        touched = self.mutate(service)
        assert touched == sorted(touched)
        stats = service.stats()
        assert stats["instances"][0]["pending_touched"] == len(touched)
        service.query(community[:2], **QUERY)
        assert service.stats()["instances"][0]["pending_touched"] == 0

    def test_warm_after_update_equals_cold_on_mutated_graph(self):
        service, community = build_service()
        seeds = community[:2]
        service.query(seeds, **QUERY)
        self.mutate(service)
        warm = service.query(seeds, **QUERY)
        fresh = RumorBlockingService(
            service.graph, community, steps=6, seed=13,
            initial_worlds=16, max_worlds=32,
        )
        cold = fresh.query(seeds, **QUERY)
        assert warm["blockers"] == cold["blockers"]
        assert warm["sigma"] == cold["sigma"]
        assert warm["worlds"] == cold["worlds"]

    def test_bridge_end_change_rebuilds_instance(self):
        service, community = build_service()
        seeds = community[:2]
        before = service.query(seeds, **QUERY)
        graph = service.graph
        outside = next(
            node
            for node in range(graph.node_count)
            if node not in set(community)
            and all(t not in set(community) for t in graph.inn[node])
        )
        service.apply_updates([(seeds[0], outside)], [])
        warm = service.query(seeds, **QUERY)
        assert warm["bridge_ends"] != before["bridge_ends"]
        fresh = RumorBlockingService(
            service.graph, community, steps=6, seed=13,
            initial_worlds=16, max_worlds=32,
        )
        cold = fresh.query(seeds, **QUERY)
        assert warm["blockers"] == cold["blockers"]
        assert warm["sigma"] == cold["sigma"]

    def test_doam_semantics_after_update(self):
        service, community = build_service(semantics="doam", steps=4)
        seeds = community[:2]
        service.query(seeds, budget=3)
        self.mutate(service)
        warm = service.query(seeds, budget=3)
        fresh = RumorBlockingService(
            service.graph, community, semantics="doam", steps=4,
            seed=13, initial_worlds=16, max_worlds=32,
        )
        cold = fresh.query(seeds, budget=3)
        assert warm["blockers"] == cold["blockers"]
        assert warm["sigma"] == cold["sigma"]

    def test_updates_reach_every_instance(self):
        service, community = build_service()
        service.query(community[:1], **QUERY)
        service.query(community[:2], **QUERY)
        self.mutate(service)
        stats = service.stats()
        assert all(
            entry["pending_touched"] > 0 for entry in stats["instances"]
        )


class TestValidation:
    def test_rejects_empty_seed_set(self):
        service, _ = build_service()
        with pytest.raises(SeedError):
            service.query([], **QUERY)

    def test_rejects_seed_outside_community(self):
        service, community = build_service()
        outside = next(
            node
            for node in range(service.graph.node_count)
            if node not in set(community)
        )
        with pytest.raises(SeedError):
            service.query([outside], **QUERY)

    def test_rejects_unknown_node(self):
        service, _ = build_service()
        with pytest.raises(NodeNotFoundError):
            service.query([10**6], **QUERY)

    def test_rejects_bad_budget(self):
        service, community = build_service()
        with pytest.raises(ValidationError):
            service.query(community[:1], budget=-1)
        with pytest.raises(ValidationError):
            service.query(community[:1], budget=True)

    def test_zero_budget_is_a_noop_answer(self):
        service, community = build_service()
        result = service.query(community[:1], budget=0)
        assert result["blockers"] == []
        assert result["sigma"] == 0.0

    def test_rejects_bad_semantics(self):
        graph, community = build_network()
        with pytest.raises(ValidationError):
            RumorBlockingService(graph, community, semantics="viral")

    def test_rejects_empty_community(self):
        graph, _ = build_network()
        with pytest.raises(ValidationError):
            RumorBlockingService(graph, [])


class TestStats:
    def test_snapshot_shape(self):
        service, community = build_service()
        service.query(community[:2], **QUERY)
        stats = service.stats()
        assert stats["graph"]["nodes"] == service.graph.node_count
        assert stats["graph"]["version"] == 0
        assert stats["community_size"] == len(community)
        (entry,) = stats["instances"]
        assert entry["seeds"] == sorted(community[:2])
        assert entry["worlds"] >= 16

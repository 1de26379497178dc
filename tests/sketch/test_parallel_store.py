"""Two-worker vs serial bit-identity for SketchStore world sampling."""

import pytest

from repro.algorithms.ris_greedy import RISGreedySelector
from repro.obs import MetricsRegistry, use_registry
from repro.rng import RngStream
from repro.sketch.rrset import rebuild_sampler, sampler_for
from repro.sketch.store import SketchStore


def make_store(context, executor=None, seed=21):
    sampler = sampler_for(
        "opoao", context, steps=8, rng=RngStream(seed, name="par-worlds")
    )
    return SketchStore(sampler, executor=executor)


def store_arrays(store):
    return (
        list(store._members),
        list(store._offsets),
        list(store._roots),
        list(store._world_of),
        list(store._sets_per_world),
    )


def counters_only(registry):
    # Drop timers (never deterministic) and exec.* fault-bookkeeping
    # counters (present only under the CI fault-injection leg).
    return {
        name: value
        for name, value in registry.counter_values().items()
        if not name.startswith("time.") and not name.startswith("exec.")
    }


class TestStoreBitIdentity:
    def test_two_workers_match_serial(self, fig2_context, two_workers):
        serial = make_store(fig2_context).ensure_worlds(24)
        parallel = make_store(fig2_context, two_workers).ensure_worlds(24)
        assert parallel.worlds == serial.worlds == 24
        assert store_arrays(parallel) == store_arrays(serial)
        assert parallel.nodes() == serial.nodes()
        for node in serial.nodes():
            assert list(parallel.sets_containing(node)) == list(
                serial.sets_containing(node)
            )

    def test_doubling_rounds_match_up_front(self, fig2_context, two_workers):
        doubled = make_store(fig2_context, two_workers)
        for count in (8, 32, 64):
            doubled.ensure_worlds(count)
        up_front = make_store(fig2_context).ensure_worlds(doubled.worlds)
        assert store_arrays(doubled) == store_arrays(up_front)

    def test_sigma_identical(self, fig2_context, two_workers):
        serial = make_store(fig2_context).ensure_worlds(16)
        parallel = make_store(fig2_context, two_workers).ensure_worlds(16)
        probe = serial.nodes()[:3]
        assert parallel.sigma(probe) == serial.sigma(probe)
        assert parallel.per_world_covered(probe) == serial.per_world_covered(probe)

    def test_deterministic_sampler_stays_serial(self, fig2_context, two_workers):
        sampler = sampler_for("doam", fig2_context, steps=8)
        store = SketchStore(sampler, executor=two_workers).ensure_worlds(16)
        assert store.worlds == 1  # one world; the pool is never engaged

    def test_merged_sketch_counters_equal_serial(self, fig2_context, two_workers):
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            make_store(fig2_context).ensure_worlds(24)
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry):
            make_store(fig2_context, two_workers).ensure_worlds(24)
        assert counters_only(parallel_registry) == counters_only(serial_registry)


class TestRebuildSampler:
    def test_payload_round_trip_samples_same_worlds(self, fig2_context):
        original = sampler_for(
            "opoao", fig2_context, steps=8, rng=RngStream(5, name="orig")
        )
        rebuilt = rebuild_sampler(original.graph, original.worker_payload())
        for index in range(6):
            ours = original.sample_world(index)
            theirs = rebuilt.sample_world(index)
            assert ours.rr_sets == theirs.rr_sets

    def test_unknown_semantics_rejected(self, fig2_context):
        from repro.errors import ValidationError

        original = sampler_for("opoao", fig2_context, steps=8, rng=RngStream(5))
        payload = original.worker_payload()
        payload["semantics"] = "mystery"
        with pytest.raises(ValidationError):
            rebuild_sampler(original.graph, payload)


class TestRISGreedyParity:
    def test_selection_identical(self, fig2_context, two_workers):
        def selector(executor):
            return RISGreedySelector(
                semantics="opoao",
                steps=8,
                initial_worlds=16,
                max_worlds=64,
                rng=RngStream(31, name="ris-par"),
                executor=executor,
            )

        serial = selector(None).select(fig2_context, budget=2)
        parallel = selector(two_workers).select(fig2_context, budget=2)
        assert parallel == serial

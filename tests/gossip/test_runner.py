"""Replica fan-out contracts: bit-identity, checkpointing, obs counters."""

import json

import pytest

from repro.exec.checkpoint import CheckpointStore
from repro.gossip import GossipConfig, GossipMonteCarlo
from repro.gossip.runner import GossipAggregate
from repro.obs.registry import MetricsRegistry, use_registry
from repro.rng import RngStream

CONFIG = GossipConfig(
    protocol="push-pull",
    fanout=2,
    rumor_budget=4,
    max_rounds=10,
    anti_entropy_every=4,
    protector_delay=2.0,
    stop_rule="counter",
    stop_k=3,
)


def run(graph, runs=10, executor=None, checkpoint=None, seed=42):
    runner = GossipMonteCarlo(
        CONFIG, runs=runs, checkpoint=checkpoint, executor=executor
    )
    return runner.run_detailed(
        graph, [0], [6, 12], rng=RngStream(seed, name="runner")
    )


class TestBitIdentity:
    def test_serial_vs_two_workers(self, ring_graph, two_workers):
        _, serial = run(ring_graph)
        _, parallel = run(ring_graph, executor=two_workers)
        assert serial == parallel

    def test_aggregate_matches_records(self, ring_graph):
        aggregate, records = run(ring_graph)
        assert aggregate.replicas == len(records) == 10
        assert aggregate.messages_total == sum(r.messages_total for r in records)
        assert aggregate.events == sum(r.events for r in records)
        assert aggregate.max_infected == max(r.final_infected for r in records)
        assert aggregate.mean_infected == pytest.approx(
            sum(r.final_infected for r in records) / len(records)
        )

    def test_requires_rng(self, ring_graph):
        with pytest.raises(ValueError):
            GossipMonteCarlo(CONFIG).run(ring_graph, [0])


class TestCheckpoint:
    def test_resume_extends_prefix_bit_identically(self, ring_graph, tmp_path):
        path = tmp_path / "gossip.ckpt"
        _, uninterrupted = run(ring_graph, runs=10)
        _, prefix = run(ring_graph, runs=6, checkpoint=path)
        assert prefix == uninterrupted[:6]
        store = CheckpointStore(path, resume=True)
        registry = MetricsRegistry()
        with use_registry(registry):
            _, resumed = run(ring_graph, runs=10, checkpoint=store)
        assert resumed == uninterrupted
        assert registry.counter_value("exec.resumed_rounds") == 6

    def test_longer_checkpoint_truncates(self, ring_graph, tmp_path):
        path = tmp_path / "gossip.ckpt"
        _, full = run(ring_graph, runs=10, checkpoint=path)
        store = CheckpointStore(path, resume=True)
        _, shorter = run(ring_graph, runs=4, checkpoint=store)
        assert shorter == full[:4]

    def test_different_seed_refuses_to_resume(self, ring_graph, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "gossip.ckpt"
        run(ring_graph, runs=5, checkpoint=path, seed=42)
        store = CheckpointStore(path, resume=True)
        with pytest.raises(CheckpointError):
            run(ring_graph, runs=5, checkpoint=store, seed=43)

    def test_record_state_round_trip(self, ring_graph, tmp_path):
        path = tmp_path / "gossip.ckpt"
        _, written = run(ring_graph, runs=4, checkpoint=path)
        rows = json.loads(path.read_text())["entries"]["gossip"]["state"]["records"]
        first = written[0]
        assert rows[0] == [
            first.final_infected,
            first.final_protected,
            list(first.messages),
            first.events,
            first.rounds,
            list(first.infected_series),
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            _, restored = run(
                ring_graph, runs=4, checkpoint=CheckpointStore(path, resume=True)
            )
        assert restored == written
        assert registry.counter_value("gossip.replicas") == 0  # none re-ran


class TestObsCounters:
    def test_counters_histogram_and_gauge(self, ring_graph, two_workers):
        registry = MetricsRegistry()
        with use_registry(registry):
            aggregate, records = run(ring_graph, executor=two_workers)
        counters = registry.counter_values()
        assert counters["gossip.replicas"] == 10
        assert counters["gossip.messages"] == aggregate.messages_total
        assert counters["gossip.events"] == aggregate.events
        assert counters["gossip.rounds"] == aggregate.rounds
        for kind, total in aggregate.messages.items():
            if total:
                assert counters[f"gossip.messages.{kind}"] == total
        histogram = registry.histogram("gossip.final_infected")
        assert sorted(histogram.values) == sorted(
            float(r.final_infected) for r in records
        )
        gauge = registry.gauge("gossip.residual_infected")
        assert gauge.value == float(aggregate.max_infected)

    def test_serial_and_parallel_counters_match(self, ring_graph, two_workers):
        serial_registry = MetricsRegistry()
        with use_registry(serial_registry):
            run(ring_graph)
        parallel_registry = MetricsRegistry()
        with use_registry(parallel_registry):
            run(ring_graph, executor=two_workers)
        serial = {
            name: value
            for name, value in serial_registry.counter_values().items()
            if name.startswith("gossip.")
        }
        parallel = {
            name: value
            for name, value in parallel_registry.counter_values().items()
            if name.startswith("gossip.")
        }
        assert serial == parallel


class TestAggregate:
    def test_empty_aggregate_is_zero(self):
        aggregate = GossipAggregate(5)
        assert aggregate.mean_infected == 0.0
        assert aggregate.mean_messages == 0.0
        assert aggregate.mean_series() == [0.0] * 6

    def test_summary_keys(self, ring_graph):
        aggregate, _ = run(ring_graph, runs=3)
        summary = aggregate.summary()
        for key in (
            "replicas",
            "mean_infected",
            "mean_protected",
            "max_infected",
            "messages_total",
            "mean_messages",
            "messages",
            "events",
            "rounds",
            "infected_series",
        ):
            assert key in summary
        assert len(summary["infected_series"]) == CONFIG.max_rounds + 1

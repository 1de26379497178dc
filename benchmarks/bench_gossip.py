"""Work-counter benchmark of the discrete-event gossip workload.

Measures the ISSUE-6 tentpole: :class:`repro.gossip.sim.GossipEngine`
replicas fanned out through :class:`repro.gossip.runner.GossipMonteCarlo`
on a seeded synthetic network. Every counter — replicas run, events
processed, node-rounds ticked, messages sent (by kind) — is a
deterministic function of the replica streams, so ``BENCH_gossip.json``
gates under ``benchmarks/check_regression.py`` exactly like the other
benches: a counter jump means the protocol is genuinely doing more work.

The run also asserts the workload's core contracts inline (serial vs
two-worker bit-identity, checkpoint/resume identity), so a perf pass
doubles as a correctness pass.
"""

from repro.exec.pool import ParallelExecutor
from repro.gossip import GossipConfig, GossipMonteCarlo
from repro.graph.digraph import DiGraph
from repro.rng import RngStream

from benchmarks.conftest import FAST

#: Gossip replicas per protocol leg.
REPLICAS = 6 if FAST else 24

#: Nodes in the synthetic small-world network.
NODES = 60 if FAST else 200

#: Simulation horizon in rounds.
ROUNDS = 12 if FAST else 20


def build_network(seed: int = 29):
    """A seeded ring-with-chords digraph (bidirectional ring + skips)."""
    rng = RngStream(seed, name="bench-gossip-net")
    edges = []
    for node in range(NODES):
        edges.append((node, (node + 1) % NODES))
        edges.append(((node + 1) % NODES, node))
        edges.append((node, (node + rng.randrange(NODES - 2) + 2) % NODES))
    return DiGraph.from_edges(edges).to_indexed()


def test_gossip(bench_metrics, tmp_path):
    graph = build_network()
    rumors = [0, NODES // 2]
    protectors = [NODES // 4, (3 * NODES) // 4]
    configs = {
        "push": GossipConfig(
            protocol="push", fanout=2, rumor_budget=5, max_rounds=ROUNDS
        ),
        "push-pull": GossipConfig(
            protocol="push-pull",
            fanout=1,
            rumor_budget=4,
            stop_rule="lose-interest",
            stop_k=3,
            max_rounds=ROUNDS,
            anti_entropy_every=4,
        ),
    }

    aggregates = {}
    with bench_metrics.collect():
        for name, config in configs.items():
            # One pool per protocol leg: the gated exec.* counters
            # count one pool and one publication per leg.
            with ParallelExecutor(2) as executor:
                runner = GossipMonteCarlo(config, runs=REPLICAS, executor=executor)
                aggregates[name] = runner.run(
                    graph,
                    rumors,
                    protectors,
                    rng=RngStream(31, name=f"bench-gossip-{name}"),
                )

    # Contract checks outside collect(): they re-run replicas and must
    # not inflate the gated counters.
    for name, config in configs.items():
        serial = GossipMonteCarlo(config, runs=REPLICAS)
        _, serial_records = serial.run_detailed(
            graph,
            rumors,
            protectors,
            rng=RngStream(31, name=f"bench-gossip-{name}"),
        )
        with ParallelExecutor(2) as executor:
            parallel = GossipMonteCarlo(config, runs=REPLICAS, executor=executor)
            _, parallel_records = parallel.run_detailed(
                graph,
                rumors,
                protectors,
                rng=RngStream(31, name=f"bench-gossip-{name}"),
            )
        assert serial_records == parallel_records
        agg = aggregates[name]
        assert agg.replicas == REPLICAS
        assert agg.messages_total == sum(r.messages_total for r in serial_records)

    # Checkpoint/resume identity on the push leg.
    config = configs["push"]
    checkpoint = tmp_path / "gossip.ckpt"
    GossipMonteCarlo(config, runs=REPLICAS // 2, checkpoint=checkpoint).run(
        graph, rumors, protectors, rng=RngStream(31, name="bench-gossip-push")
    )
    from repro.exec.checkpoint import CheckpointStore

    resumed, resumed_records = GossipMonteCarlo(
        config,
        runs=REPLICAS,
        checkpoint=CheckpointStore(checkpoint, resume=True),
    ).run_detailed(
        graph, rumors, protectors, rng=RngStream(31, name="bench-gossip-push")
    )
    full = GossipMonteCarlo(config, runs=REPLICAS)
    _, full_records = full.run_detailed(
        graph, rumors, protectors, rng=RngStream(31, name="bench-gossip-push")
    )
    assert resumed_records == full_records

    counters = bench_metrics.registry.counter_values()
    assert counters["gossip.replicas"] == 2 * REPLICAS
    assert counters["gossip.messages"] > 0
    assert counters["gossip.events"] > 0

    bench_metrics.emit(
        "gossip",
        context={
            "replicas": REPLICAS,
            "nodes": NODES,
            "rounds": ROUNDS,
            "protocols": sorted(configs),
            "rumors": rumors,
            "protectors": protectors,
        },
    )

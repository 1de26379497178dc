"""The four end-to-end workloads.

Each workload is a closed loop with one client: :meth:`request` makes
the next input from the run's seed (untimed), :meth:`op` sends it and
waits for the answer (timed), :meth:`validate` checks the answer
(untimed). :meth:`verify` runs the workload's end-of-run output check
and :meth:`protected_frac` races the chosen blockers in an independent
kernel simulation. Sizes are dataclass fields, so tests run every
workload at a tiny size through the same code.

Every serve and select workload runs on ``enron-small`` at scale 0.05
with dataset seed 13 (1 835 nodes, 18 350 edges, a 37-node rumor
community), OPOAO semantics and the numpy backend; the run's seed
drives only the generated inputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import statistics
from dataclasses import dataclass
from multiprocessing import resource_tracker
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.layers import CODEC_SPAN
from repro.algorithms.base import SelectionContext
from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.ris_greedy import RISGreedySelector
from repro.datasets import load_dataset
from repro.diffusion.opoao import OPOAOModel
from repro.exec.pool import ParallelExecutor
from repro.experiments.harness import run_figure
from repro.experiments.paper import paper_experiment
from repro.graph.digraph import DiGraph
from repro.kernels.sigma import BatchedSigmaEvaluator
from repro.rng import RngStream
from repro.serve import RumorBlockingService, protocol

DATASET = "enron-small"
DATASET_SCALE = 0.05
DATASET_SEED = 13
#: fixed seed of everything that is part of the system, not its input
#: (the service's and selector's world sampling, the quality check).
SYSTEM_SEED = 13
#: worlds the quality check races each blocker set on.
CHECK_RUNS = 64
#: serve budgets cycle 1..MAX_BUDGET; precision target of every query.
MAX_BUDGET = 8
EPSILON = 0.3
DELTA = 0.1
#: select-cold: rumor seeds (and blockers) per call, as a community share.
RUMOR_FRACTION = 0.1
#: select-cold: size of the shared pool.
WORKERS = 2


def _partition(rng: RngStream, community: Sequence[int], blocks: int):
    """A random partition of the community into ``blocks`` sorted seed sets.

    Every community node seeds exactly one outbreak, so whatever the
    draw, the instances jointly start from the same nodes: the run's
    work depends on how the community is split, not on which corner of
    it a few seeds happen to land in.
    """
    order = list(community)
    rng.shuffle(order)
    return [tuple(sorted(order[index::blocks])) for index in range(blocks)]


def _round_trip(state, request: dict, tracer) -> dict:
    """One newline-JSON exchange, as a client and ``handle_connection`` do it."""
    with tracer.span(CODEC_SPAN):
        decoded = json.loads(json.dumps(request))
    response = state.loop.run_until_complete(
        protocol.process_request(state.service, decoded)
    )
    with tracer.span(CODEC_SPAN):
        return json.loads(json.dumps(response, sort_keys=True))


def _answer_ok(reply: dict, seeds: Sequence[int], budget: int) -> bool:
    blockers = reply.get("blockers", ())
    return (
        reply.get("ok") is True
        and len(blockers) <= budget
        and not set(blockers) & set(seeds)
    )


def _kernel_protected_fraction(
    graph: DiGraph, community, seeds, blockers, steps: int
) -> float:
    """Share of bridge ends the rumor does not take, by an independent race."""
    context = SelectionContext(graph, community, seeds)
    evaluator = BatchedSigmaEvaluator(
        context,
        model=OPOAOModel(),
        runs=CHECK_RUNS,
        max_hops=steps,
        rng=RngStream(SYSTEM_SEED, name="e2e-check"),
        backend="numpy",
    )
    return evaluator.protected_fraction(blockers)


def _digraph_of(indexed) -> DiGraph:
    """A label-space copy of an indexed graph (the check's own input)."""
    graph = DiGraph()
    labels = indexed.labels
    graph.add_nodes(labels)
    for tail, (row, weights) in enumerate(zip(indexed.out, indexed.out_weights)):
        for head, weight in zip(row, weights):
            graph.add_edge(labels[tail], labels[head], weight)
    return graph


@dataclass
class _ServeWorkload:
    """Shared set-up of the two service workloads.

    The seed sets partition the rumor community into ``seed_sets``
    outbreaks; set-up builds the service and cold-builds one warm
    instance per outbreak.
    """

    seed_sets: int
    steps: int
    worlds: int
    setup_reps: int = 3

    def _service(self, graph, community) -> RumorBlockingService:
        return RumorBlockingService(
            graph,
            community,
            semantics="opoao",
            steps=self.steps,
            seed=SYSTEM_SEED,
            initial_worlds=self.worlds,
            max_worlds=self.worlds,
            backend="numpy",
        )

    def setup(self, seed: int):
        dataset = load_dataset(DATASET, scale=DATASET_SCALE, seed=DATASET_SEED)
        indexed = dataset.graph.to_indexed()
        community = sorted(indexed.indices(dataset.rumor_community_nodes))
        service = self._service(indexed, community)
        rng = RngStream(seed, name=self.name)
        seed_sets = self.outbreaks(rng, community)
        for seeds in seed_sets:
            service.query(list(seeds), budget=MAX_BUDGET, epsilon=EPSILON, delta=DELTA)
        return SimpleNamespace(
            dataset=dataset,
            service=service,
            community=community,
            seed_sets=seed_sets,
            rng=rng,
            loop=asyncio.new_event_loop(),
            answers={},  # (seeds, budget) -> first answer
            final=None,  # the last op's (queries, replies)
        )

    def outbreaks(self, rng: RngStream, community: Sequence[int]):
        """The seed sets: a seed-driven partition of the community."""
        return _partition(rng.fork("outbreaks"), community, self.seed_sets)

    def query(self, state, seeds, budget: int) -> dict:
        return {
            "op": "query", "seeds": list(seeds), "budget": budget,
            "eps": EPSILON, "delta": DELTA,
        }

    def protected_frac(self, state) -> float:
        """Mean over outbreaks of the protected share at the top budget.

        Asked after the timed phase, on the graph as the run left it.
        """
        service = state.service
        labels = service.graph.labels
        graph = _digraph_of(service.graph)
        fractions = []
        for seeds in state.seed_sets:
            reply = service.query(
                list(seeds), budget=MAX_BUDGET, epsilon=EPSILON, delta=DELTA
            )
            fractions.append(_kernel_protected_fraction(
                graph,
                state.dataset.rumor_community_nodes,
                [labels[node] for node in seeds],
                reply["blocker_labels"],
                self.steps,
            ))
        return statistics.fmean(fractions)

    def close(self, state) -> None:
        state.loop.close()


@dataclass
class ServeRead(_ServeWorkload):
    """Repeated warm reads: budgets cycle 1..8 over the warm outbreaks."""

    seed_sets: int = 3
    steps: int = 8
    worlds: int = 32

    name = "serve-read"

    def request(self, state, index: int) -> dict:
        outbreaks = len(state.seed_sets)
        budget = 1 + (index // outbreaks) % MAX_BUDGET
        return self.query(state, state.seed_sets[index % outbreaks], budget)

    def key(self, state, request: dict):
        return tuple(request["seeds"]), request["budget"]

    def op(self, state, request: dict, tracer) -> dict:
        return _round_trip(state, request, tracer)

    def validate(self, state, request: dict, reply: dict) -> bool:
        seeds = tuple(request["seeds"])
        budget = request["budget"]
        if not _answer_ok(reply, seeds, budget):
            return False
        answer = (reply["blockers"], reply["sigma"], reply["worlds"])
        first = state.answers.setdefault((seeds, budget), answer)
        return first == answer  # the same question gets the same answer

    def verify(self, state) -> List[str]:
        return []  # repeats are compared as they arrive, in validate


@dataclass
class ServeChurn(_ServeWorkload):
    """Writes beside reads: one edge in and one out, then every outbreak re-asked."""

    seed_sets: int = 3
    steps: int = 4
    worlds: int = 8

    name = "serve-churn"

    def outbreaks(self, rng: RngStream, community: Sequence[int]):
        """A fixed split; the run's seed drives the update stream instead.

        Splits differ in refresh cost by about 8%, which would double
        this workload's spread across seeds.
        """
        return _partition(RngStream(SYSTEM_SEED, name=self.name), community, self.seed_sets)

    def request(self, state, index: int) -> dict:
        graph = state.service.graph
        rng = state.rng.fork("update", index)
        nodes = graph.node_count
        while True:
            tail, head = rng.randrange(nodes), rng.randrange(nodes)
            if tail != head and head not in graph.out[tail]:
                break
        while True:
            gone = rng.randrange(nodes)
            if graph.out[gone]:
                break
        row = graph.out[gone]
        budget = 1 + index % MAX_BUDGET
        return {
            "update": {
                "op": "update",
                "insert": [[tail, head]],
                "delete": [[gone, row[rng.randrange(len(row))]]],
            },
            "queries": [self.query(state, seeds, budget) for seeds in state.seed_sets],
        }

    def key(self, state, request: dict):
        return state.service.graph.version  # every op sees a new graph

    def op(self, state, request: dict, tracer) -> Tuple[dict, List[dict]]:
        updated = _round_trip(state, request["update"], tracer)
        return updated, [_round_trip(state, q, tracer) for q in request["queries"]]

    def validate(self, state, request: dict, reply) -> bool:
        updated, answers = reply
        state.final = (request["queries"], answers)
        return updated.get("ok") is True and all(
            _answer_ok(answer, query["seeds"], query["budget"])
            for query, answer in zip(request["queries"], answers)
        )

    def verify(self, state) -> List[str]:
        """A fresh service on the mutated graph answers the last op the same."""
        fresh = self._service(state.service.graph, state.community)
        fields = ("blockers", "sigma", "worlds")
        problems = []
        for query, warm in zip(*state.final):
            cold = fresh.query(
                query["seeds"], budget=query["budget"], epsilon=EPSILON, delta=DELTA
            )
            if any(cold[field] != warm[field] for field in fields):
                problems.append(
                    f"after churn, seeds {query['seeds']}: warm "
                    f"{[warm[f] for f in fields]} != fresh {[cold[f] for f in fields]}"
                )
        return problems


def _pool_warm_setup(graph, payload):
    return None


def _pool_warm_task(state, chunk):
    return list(chunk)


@dataclass
class SelectCold:
    """Cold selections: one RIS-greedy call per fresh rumor draw.

    Draws come in rounds: each round shuffles the community and cuts it
    into disjoint draws of ``budget`` seeds, so over a round every node
    seeds once. A run's work then depends on how the community is cut,
    not on which corner of it a few draws happen to land in.
    """

    steps: int = 8
    initial_worlds: int = 64
    max_worlds: int = 256
    verify_runs: int = 64
    #: each set-up is about 0.15 s; ten of them give a steady median.
    setup_reps: int = 10

    name = "select-cold"

    def setup(self, seed: int):
        dataset = load_dataset(DATASET, scale=DATASET_SCALE, seed=DATASET_SEED)
        members = sorted(dataset.communities.members(dataset.rumor_community), key=repr)
        # A first map publishes its graph before forking, so the workers
        # share the parent's shared-memory resource tracker. The warm-up
        # below forks with no graph; started now, the tracker is still
        # inherited, and no worker starts (and orphans) one of its own.
        resource_tracker.ensure_running()
        executor = ParallelExecutor(WORKERS)
        # Start the workers now: the pool is part of the long-lived
        # process every selection shares, not of any one call.
        executor.map_items(_pool_warm_setup, _pool_warm_task, None, list(range(WORKERS)))
        return SimpleNamespace(
            dataset=dataset,
            executor=executor,
            members=members,
            budget=min(max(1, math.ceil(RUMOR_FRACTION * len(members))), len(members) - 1),
            rng=RngStream(seed, name=self.name),
            fractions=[],
            first=None,
        )

    def key(self, state, seeds):
        return tuple(sorted(seeds, key=repr))

    def request(self, state, index: int) -> List:
        draws = len(state.members) // state.budget
        order = list(state.members)
        state.rng.fork("round", index // draws).shuffle(order)
        start = (index % draws) * state.budget
        return order[start:start + state.budget]

    def _selector(self, executor, verify: bool) -> RISGreedySelector:
        return RISGreedySelector(
            semantics="opoao",
            epsilon=EPSILON,
            delta=DELTA,
            steps=self.steps,
            initial_worlds=self.initial_worlds,
            max_worlds=self.max_worlds,
            rng=RngStream(SYSTEM_SEED, name=self.name),
            verify_backend="numpy" if verify else None,
            verify_runs=self.verify_runs,
            executor=executor,
            backend="numpy",
        )

    def op(self, state, seeds, tracer):
        dataset = state.dataset
        context = SelectionContext(dataset.graph, dataset.rumor_community_nodes, seeds)
        selector = self._selector(state.executor, verify=True)
        picks = selector.select(context, budget=state.budget)
        return picks, selector.last_kernel_protected_fraction

    def validate(self, state, seeds, reply) -> bool:
        picks, fraction = reply
        if state.first is None:
            state.first = (seeds, picks)
        state.fractions.append(fraction)
        return (
            0 < len(picks) <= state.budget
            and not set(picks) & set(seeds)
            and fraction is not None
        )

    def verify(self, state) -> List[str]:
        """The first draw's pick on the pool equals the serial pick."""
        seeds, parallel = state.first
        dataset = state.dataset
        context = SelectionContext(dataset.graph, dataset.rumor_community_nodes, seeds)
        serial = self._selector(None, verify=False).select(context, budget=state.budget)
        if serial == parallel:
            return []
        return [f"pool pick {parallel} != serial pick {serial}"]

    def protected_frac(self, state) -> float:
        return statistics.fmean(state.fractions)

    def close(self, state) -> None:
        state.executor.close()


@contextlib.contextmanager
def _recording_greedy_picks(picks: list):
    """Record ``(context, blockers)`` of every CELF greedy selection."""
    original = CELFGreedySelector.select

    def select(self, context, budget=None):
        chosen = original(self, context, budget)
        picks.append((context, list(chosen)))
        return chosen

    CELFGreedySelector.select = select
    try:
        yield picks
    finally:
        CELFGreedySelector.select = original


@dataclass
class FigureOpoao:
    """The paper's Fig. 5 (OPOAO, Enron small community), regenerated.

    Every op regenerates the figure under its own figure seed, drawn
    from the run's seed. The figure's seed picks the replica graph, the
    rumor community and the rumor draw, so no op repeats another.
    Replicas differ in Greedy's protected share by about 13%, more than
    a quality bound allows, so quality is judged on the figure as it
    ships (seed 13), regenerated once after the loop.
    """

    scale: float = 0.05
    runs: int = 10
    greedy_runs: int = 2
    greedy_max_candidates: int = 10
    hops: int = 31
    #: each set-up is about 0.12 s; twelve of them give a steady median.
    setup_reps: int = 12

    name = "figure-opoao"

    def config(self, seed: Optional[int] = None):
        """The figure under ``seed``, or under its shipped seed."""
        shipped = paper_experiment("fig5")
        return shipped.scaled(
            seed=shipped.seed if seed is None else seed,
            scale=self.scale,
            runs=self.runs,
            draws=1,
            greedy_runs=self.greedy_runs,
            greedy_max_candidates=self.greedy_max_candidates,
            hops=self.hops,
        )

    def setup(self, seed: int):
        # Build the shipped figure's replica: the set-up work a figure pays.
        config = self.config()
        load_dataset(config.dataset, scale=config.scale, seed=config.seed)
        return SimpleNamespace(rng=RngStream(seed, name=self.name), picks=[], finals=[])

    def request(self, state, index: int):
        return self.config(state.rng.fork("figure", index).randrange(2**31))

    def key(self, state, config):
        return config.seed

    def op(self, state, config, tracer):
        return run_figure(config)

    def validate(self, state, config, result) -> bool:
        state.finals.append(result.final_infected("Greedy"))
        return not _figure_problems(result)

    def verify(self, state) -> List[str]:
        """The shipped figure passes the same checks; keep Greedy's picks."""
        with _recording_greedy_picks(state.picks):
            return _figure_problems(run_figure(self.config()))

    def protected_frac(self, state) -> float:
        """Protected share of Greedy's picks on the shipped figure."""
        return statistics.fmean(
            _kernel_protected_fraction(
                context.graph, context.rumor_community, context.rumor_seeds,
                blockers, self.hops,
            )
            for context, blockers in state.picks
        )

    def info(self, state) -> Dict[str, float]:
        return {"final_infected": statistics.fmean(state.finals)}

    def close(self, state) -> None:
        pass


def _figure_problems(result) -> List[str]:
    """Every series is monotone and no strategy ends above NoBlocking."""
    problems = []
    for name, values in result.series.items():
        if any(later < earlier - 1e-9 for earlier, later in zip(values, values[1:])):
            problems.append(f"series {name} is not monotone")
    worst = result.final_infected("NoBlocking")
    for name in result.series:
        if result.final_infected(name) > worst + 1e-9:
            problems.append(f"{name} ends above NoBlocking")
    return problems


WORKLOADS = {
    workload.name: workload
    for workload in (ServeRead(), ServeChurn(), SelectCold(), FigureOpoao())
}


def workload(name: str, **sizes) -> object:
    """A workload by name, with any size overridden (tests use tiny sizes)."""
    base = WORKLOADS[name]
    return type(base)(**sizes) if sizes else base


"""Command-line interface.

Subcommands::

    repro datasets                      # list registered dataset settings
    repro stats --dataset hep           # replica statistics + community info
    repro communities --dataset hep     # detect + summarise communities
    repro select --dataset hep --algorithm scbg
    repro simulate --dataset hep --model doam --algorithm scbg
    repro bench --dataset enron-small --model doam --runs 50
    repro serve --dataset enron-small            # warm query service
    repro serve --dataset enron-small --loadgen 40
    repro experiment table1 [--scale 0.1] [--json out.json]
    repro experiment fig4 ...

Every subcommand accepts ``--seed`` and ``-v/-vv`` verbosity. The
``experiment`` subcommand regenerates any of the paper's tables/figures.

``select``, ``simulate``, and ``bench`` accept ``--metrics-out PATH``:
the command then runs with a real :class:`repro.obs.MetricsRegistry`
installed and writes every work counter, gauge, histogram, and stage
timer it accumulated as machine-readable JSON (see
``docs/observability.md`` for the schema and metric names).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algorithms.base import SelectionContext
from repro.algorithms.celf import CELFGreedySelector
from repro.algorithms.heuristics import (
    MaxDegreeSelector,
    ProximitySelector,
    RandomSelector,
)
from repro.algorithms.pagerank import PageRankSelector
from repro.algorithms.scbg import SCBGSelector
from repro.community.metrics import conductance
from repro.datasets.registry import list_datasets, load_dataset
from repro.diffusion.base import PRIORITY_RULES
from repro.errors import ReproError
from repro.experiments.config import TableConfig
from repro.experiments.harness import make_model, run_figure, run_table
from repro.experiments.paper import PAPER_EXPERIMENTS, paper_experiment
from repro.experiments.report import (
    figure_to_dict,
    render_figure,
    render_table,
    save_json,
    table_to_dict,
)
from repro.graph.metrics import summarize
from repro.lcrb.evaluation import evaluate_protectors
from repro.lcrb.pipeline import draw_rumor_seeds
from repro.logging_utils import configure_logging
from repro.obs import MetricsRegistry, metrics, use_registry
from repro.rng import RngStream

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Least Cost Rumor Blocking (ICDCS 2013) reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="-v info, -vv debug"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered dataset settings")

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", required=True, help="hep | enron-small | enron-large")
        p.add_argument("--scale", type=float, default=0.1, help="replica scale")
        p.add_argument("--seed", type=int, default=13, help="master seed")

    stats = sub.add_parser("stats", help="print replica statistics")
    add_dataset_args(stats)

    communities = sub.add_parser("communities", help="summarise detected communities")
    add_dataset_args(communities)
    communities.add_argument("--top", type=int, default=10, help="communities to show")

    def add_metrics_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="run with a real metrics registry and write work counters, "
            "histograms, and stage timers to PATH as JSON",
        )

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            default=None,
            choices=["auto", "python", "numpy"],
            help="run diffusion through a batched kernel backend "
            "(default: the per-replica reference path)",
        )

    def add_workers_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="fan work out over N processes (0 = one per CPU); results "
            "are bit-identical to serial",
        )
        p.add_argument(
            "--chunk-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-chunk deadline for pool work (needs --workers); a "
            "chunk that misses it is retried deterministically (default: "
            "wait forever)",
        )
        p.add_argument(
            "--chunk-retries",
            type=int,
            default=None,
            metavar="K",
            help="resubmissions per failed chunk before degrading to "
            "inline execution (needs --workers; default: 2); see "
            "docs/parallel.md",
        )

    def add_checkpoint_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="save selection/evaluation round state to PATH "
            "(repro.ckpt/v1 JSON) after every completed round",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="with --checkpoint: resume from PATH when it exists and "
            "matches this run's configuration (results are bit-identical "
            "to an uninterrupted run)",
        )

    def add_sketch_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--epsilon", type=float, default=0.1,
            help="ris-greedy: relative precision of the sketch stopping rule",
        )
        p.add_argument(
            "--delta", type=float, default=0.05,
            help="ris-greedy: confidence parameter of the stopping rule",
        )

    select = sub.add_parser("select", help="select protector originators")
    add_dataset_args(select)
    select.add_argument(
        "--algorithm",
        default="scbg",
        choices=[
            "scbg",
            "greedy",
            "ris-greedy",
            "gvs",
            "maxdegree",
            "degreediscount",
            "kcore",
            "proximity",
            "random",
            "pagerank",
        ],
    )
    select.add_argument("--rumor-fraction", type=float, default=0.05)
    select.add_argument("--budget", type=int, default=None)
    add_backend_arg(select)
    add_sketch_args(select)
    add_workers_arg(select)
    add_checkpoint_args(select)
    add_metrics_arg(select)

    simulate = sub.add_parser("simulate", help="select then simulate a diffusion")
    add_dataset_args(simulate)
    simulate.add_argument(
        "--algorithm",
        default="scbg",
        choices=[
            "scbg",
            "greedy",
            "ris-greedy",
            "gvs",
            "maxdegree",
            "degreediscount",
            "kcore",
            "proximity",
            "random",
            "pagerank",
            "none",
        ],
    )
    simulate.add_argument("--model", default="doam", choices=["opoao", "doam", "ic", "lt"])
    simulate.add_argument("--rumor-fraction", type=float, default=0.05)
    simulate.add_argument("--budget", type=int, default=None)
    add_backend_arg(simulate)
    add_sketch_args(simulate)
    add_workers_arg(simulate)
    add_checkpoint_args(simulate)
    simulate.add_argument("--runs", type=int, default=100)
    simulate.add_argument("--hops", type=int, default=31)
    simulate.add_argument(
        "--chart",
        action="store_true",
        help="render the infected-per-hop curve as an ASCII chart (log scale)",
    )
    add_metrics_arg(simulate)

    bench = sub.add_parser(
        "bench", help="micro-benchmark a diffusion model on a dataset replica"
    )
    add_dataset_args(bench)
    bench.add_argument(
        "--model",
        default=None,
        choices=["opoao", "doam", "ic", "lt"],
        help="defaults to doam; with --backend, to opoao (the stochastic "
        "model the batched kernels are built for)",
    )
    bench.add_argument("--runs", type=int, default=50, help="replicas to simulate")
    bench.add_argument("--hops", type=int, default=31)
    bench.add_argument(
        "--rumor-fraction", type=float, default=0.05, help=argparse.SUPPRESS
    )
    add_backend_arg(bench)
    bench.add_argument(
        "--candidates",
        type=int,
        default=10,
        help="with --backend: protector candidates to time sigma over",
    )
    add_workers_arg(bench)
    add_metrics_arg(bench)

    inspect = sub.add_parser(
        "inspect", help="draw an LCRB instance and print its diagnostics"
    )
    add_dataset_args(inspect)
    inspect.add_argument("--rumor-fraction", type=float, default=0.05)

    sources = sub.add_parser(
        "sources", help="simulate a hidden-source rumor and locate it"
    )
    add_dataset_args(sources)
    sources.add_argument(
        "--method", default="jordan", choices=["jordan", "distance", "rumor"]
    )
    sources.add_argument("--spread-hops", type=int, default=4)
    sources.add_argument("--trials", type=int, default=5)

    sweep = sub.add_parser(
        "sweep", help="sweep community mixing vs blocking cost (ablation)"
    )
    sweep.add_argument("--nodes", type=int, default=1000)
    sweep.add_argument("--draws", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=13)
    sweep.add_argument(
        "--mixings",
        type=float,
        nargs="+",
        default=[0.02, 0.05, 0.10, 0.20],
    )

    gossip = sub.add_parser(
        "gossip",
        help="run the discrete-event gossip workload (rumor mongering)",
    )
    add_dataset_args(gossip)
    gossip.add_argument(
        "--protocol",
        default="push",
        choices=["push", "pull", "push-pull"],
        help="rumor-mongering variant (who initiates a round's exchanges)",
    )
    gossip.add_argument(
        "--fanout", type=int, default=1, help="peers contacted per node per round"
    )
    gossip.add_argument(
        "--rumor-budget",
        type=int,
        default=8,
        help="rounds an informed node actively forwards before stopping",
    )
    gossip.add_argument(
        "--stop-rule",
        default="budget",
        choices=["budget", "lose-interest", "counter"],
        help="when spreaders stop: fixed budget, lose interest with "
        "probability 1/k on an informed contact, or after k informed contacts",
    )
    gossip.add_argument(
        "--stop-k", type=int, default=4, help="the k of lose-interest/counter"
    )
    gossip.add_argument(
        "--rounds", type=int, default=30, help="simulation horizon in rounds"
    )
    gossip.add_argument(
        "--anti-entropy-every",
        type=int,
        default=0,
        help="anti-entropy reconciliation period in rounds (0 = off)",
    )
    gossip.add_argument(
        "--protector-delay",
        type=float,
        default=2.0,
        help="rounds before the protector cascade is injected",
    )
    gossip.add_argument(
        "--protector-budget",
        type=int,
        default=None,
        help="protector spreaders' round budget (default: --rumor-budget)",
    )
    gossip.add_argument("--rumor-fraction", type=float, default=0.05)
    gossip.add_argument(
        "--protector-selector",
        default="maxdegree",
        choices=["ris-greedy", "maxdegree", "random", "none"],
        help="how the protector seed set is chosen",
    )
    gossip.add_argument(
        "--protectors", type=int, default=2, help="protector seed-set size"
    )
    gossip.add_argument("--runs", type=int, default=50, help="gossip replicas")
    gossip.add_argument(
        "--compare",
        action="store_true",
        help="run the blocking study instead: none/random/maxdegree/"
        "ris-greedy protector sets on messages-sent vs final-infected",
    )
    add_sketch_args(gossip)
    add_workers_arg(gossip)
    add_checkpoint_args(gossip)
    add_metrics_arg(gossip)

    distributed = sub.add_parser(
        "distributed",
        help="race K cascades: uncoordinated blocking campaigns vs a "
        "centralized planner (price of non-cooperation)",
    )
    add_dataset_args(distributed)
    distributed.add_argument(
        "--model", default="ic", choices=["opoao", "doam", "ic", "lt"]
    )
    distributed.add_argument(
        "--campaigns", type=int, default=2, help="positive campaigns (K - 1)"
    )
    distributed.add_argument(
        "--budget", type=int, default=2, help="seeds per campaign"
    )
    distributed.add_argument("--runs", type=int, default=100)
    distributed.add_argument("--hops", type=int, default=31)
    distributed.add_argument(
        "--select-runs",
        type=int,
        default=8,
        help="coupled replicas per greedy sigma estimate",
    )
    distributed.add_argument(
        "--priority",
        default="positives-first",
        choices=list(PRIORITY_RULES),
        help="who wins simultaneous arrivals (positives-first = paper rule)",
    )
    distributed.add_argument("--rumor-fraction", type=float, default=0.05)
    distributed.add_argument("--json", dest="json_path", default=None)
    distributed.add_argument(
        "--chart",
        action="store_true",
        help="render distributed vs centralized infected-per-hop curves",
    )
    add_metrics_arg(distributed)

    impressions = sub.add_parser(
        "impressions",
        help="score a K-cascade race by rumor-dominated weighted impressions",
    )
    add_dataset_args(impressions)
    impressions.add_argument(
        "--model", default="ic", choices=["opoao", "doam", "ic", "lt"]
    )
    impressions.add_argument(
        "--campaigns",
        type=int,
        default=2,
        help="positive campaigns when auto-selecting seeds (K - 1)",
    )
    impressions.add_argument(
        "--budget", type=int, default=2, help="seeds per auto-selected campaign"
    )
    impressions.add_argument(
        "--campaign-seeds",
        action="append",
        default=None,
        metavar="LABELS",
        help="explicit comma-separated seed labels for one campaign; "
        "repeat the flag once per campaign (overrides auto-selection)",
    )
    impressions.add_argument(
        "--weights",
        default=None,
        metavar="W0,W1,...",
        help="per-cascade impression weights, rumor first "
        "(default: 1.0 for every cascade)",
    )
    impressions.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="rumor impression mass needed to dominate a node",
    )
    impressions.add_argument("--runs", type=int, default=100)
    impressions.add_argument("--hops", type=int, default=31)
    impressions.add_argument(
        "--priority", default="positives-first", choices=list(PRIORITY_RULES)
    )
    impressions.add_argument("--rumor-fraction", type=float, default=0.05)
    impressions.add_argument("--json", dest="json_path", default=None)
    add_checkpoint_args(impressions)
    add_metrics_arg(impressions)

    serve = sub.add_parser(
        "serve",
        help="run the warm rumor-blocking query service (newline-JSON)",
    )
    add_dataset_args(serve)
    serve.add_argument(
        "--semantics",
        default="opoao",
        choices=["opoao", "doam"],
        help="RR-sketch semantics the service answers under",
    )
    serve.add_argument(
        "--steps", type=int, default=31, help="diffusion horizon per world"
    )
    serve.add_argument(
        "--initial-worlds",
        type=int,
        default=64,
        help="sketch sample size before the first greedy pass",
    )
    serve.add_argument(
        "--max-worlds", type=int, default=4096, help="adaptive doubling cap"
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix socket instead of stdin/stdout",
    )
    serve.add_argument(
        "--loadgen",
        type=int,
        default=None,
        metavar="N",
        help="instead of serving, replay N queries of the deterministic "
        "query/update mix in-process and print the report",
    )
    serve.add_argument(
        "--update-every",
        type=int,
        default=5,
        help="loadgen: apply an edge-update batch before every N-th query",
    )
    serve.add_argument(
        "--budget", type=int, default=4, help="loadgen: protectors per query"
    )
    add_backend_arg(serve)
    add_sketch_args(serve)
    add_workers_arg(serve)
    add_metrics_arg(serve)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "key",
        choices=sorted(PAPER_EXPERIMENTS) + ["all"],
        help="fig4..fig9, table1, or 'all' for the whole roster",
    )
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument("--runs", type=int, default=None)
    experiment.add_argument("--draws", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--json", dest="json_path", default=None)
    experiment.add_argument(
        "--markdown", dest="markdown_path", default=None,
        help="write an EXPERIMENTS.md-style report of the run",
    )

    return parser


def _checkpoint_store(args):
    """The run's checkpoint store, from ``--checkpoint``/``--resume``."""
    path = getattr(args, "checkpoint", None)
    if path is None:
        return None
    from repro.exec.checkpoint import CheckpointStore

    return CheckpointStore(path, resume=getattr(args, "resume", False))


def _selector(name: str, rng: RngStream, args=None, checkpoint=None):
    if name == "scbg":
        return SCBGSelector()
    if name == "ris-greedy":
        from repro.algorithms.ris_greedy import RISGreedySelector

        # Sketch under the semantics being simulated; OPOAO sketches also
        # stand in for the stochastic extension models (ic/lt).
        semantics = "doam" if getattr(args, "model", "doam") == "doam" else "opoao"
        return RISGreedySelector(
            semantics=semantics,
            epsilon=getattr(args, "epsilon", 0.1),
            delta=getattr(args, "delta", 0.05),
            rng=rng.fork("ris-greedy"),
            verify_backend=getattr(args, "backend", None),
            checkpoint=checkpoint,
            executor=getattr(args, "executor", None),
            backend=getattr(args, "backend", None),
        )
    if name == "gvs":
        from repro.algorithms.gvs import GreedyViralStopper

        return GreedyViralStopper(runs=8, max_candidates=150, rng=rng.fork("gvs"))
    if name == "greedy":
        return CELFGreedySelector(
            runs=8,
            max_candidates=150,
            rng=rng.fork("greedy"),
            backend=getattr(args, "backend", None),
            checkpoint=checkpoint,
            executor=getattr(args, "executor", None),
        )
    if name == "maxdegree":
        return MaxDegreeSelector()
    if name == "degreediscount":
        from repro.algorithms.degree_discount import DegreeDiscountSelector

        return DegreeDiscountSelector()
    if name == "kcore":
        from repro.algorithms.heuristics import KCoreSelector

        return KCoreSelector()
    if name == "proximity":
        return ProximitySelector(rng=rng.fork("proximity"))
    if name == "random":
        return RandomSelector(rng=rng.fork("random"))
    if name == "pagerank":
        return PageRankSelector()
    raise ValueError(f"unknown algorithm {name!r}")


def _build_instance(args, rng: RngStream):
    with metrics().timer("stage.load"):
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    community_size = dataset.communities.size(dataset.rumor_community)
    count = max(1, round(getattr(args, "rumor_fraction", 0.05) * community_size))
    count = min(count, community_size - 1) or 1
    seeds = draw_rumor_seeds(
        dataset.communities, dataset.rumor_community, count, rng.fork("seeds")
    )
    context = SelectionContext(
        dataset.graph, dataset.rumor_community_nodes, seeds
    )
    return dataset, context


def _cmd_datasets(_args) -> int:
    print(f"{'name':<14} {'paper |N|':>9} {'paper |C|':>9} {'paper |B|':>9}  description")
    for spec in list_datasets():
        print(
            f"{spec.name:<14} {spec.paper_nodes:>9} {spec.paper_community:>9} "
            f"{spec.paper_bridge_ends:>9}  {spec.description}"
        )
    return 0


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(summarize(dataset.graph))
    cover = dataset.communities
    print(
        f"communities: {cover.community_count}; rumor community "
        f"{dataset.rumor_community} has |C|={cover.size(dataset.rumor_community)} "
        f"(paper |C|={dataset.spec.paper_community})"
    )
    members = dataset.rumor_community_nodes
    print(
        f"rumor community: internal edge fraction="
        f"{cover.internal_edge_fraction(dataset.rumor_community):.2f}, "
        f"conductance={conductance(dataset.graph, members):.3f}"
    )
    return 0


def _cmd_communities(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    cover = dataset.communities
    sizes = sorted(cover.sizes().items(), key=lambda kv: -kv[1])
    print(f"{cover.community_count} communities detected (Louvain)")
    print(f"{'id':>4} {'size':>6} {'internal':>9} {'neighbors':>9}")
    for community_id, size in sizes[: args.top]:
        print(
            f"{community_id:>4} {size:>6} "
            f"{cover.internal_edge_fraction(community_id):>9.2f} "
            f"{len(cover.neighbor_communities(community_id)):>9}"
        )
    return 0


def _cmd_select(args) -> int:
    rng = RngStream(args.seed, name="cli-select")
    dataset, context = _build_instance(args, rng)
    selector = _selector(args.algorithm, rng, args, checkpoint=_checkpoint_store(args))
    with metrics().timer("stage.select"):
        protectors = selector.select(context, budget=args.budget)
    print(
        f"instance: |C|={len(context.rumor_community)} |S_R|={len(context.rumor_seeds)} "
        f"|B|={len(context.bridge_ends)}"
    )
    print(f"{selector.name} selected {len(protectors)} protector(s):")
    print(" ".join(str(p) for p in protectors))
    from repro.lcrb.report import render_cover_assessment

    print(render_cover_assessment(context, protectors))
    return 0


def _cmd_simulate(args) -> int:
    rng = RngStream(args.seed, name="cli-simulate")
    dataset, context = _build_instance(args, rng)
    checkpoint = _checkpoint_store(args)
    if args.algorithm == "none":
        protectors = []
        name = "NoBlocking"
    else:
        selector = _selector(args.algorithm, rng, args, checkpoint=checkpoint)
        with metrics().timer("stage.select"):
            protectors = selector.select(context, budget=args.budget)
        name = selector.name
    model = make_model(args.model)
    with metrics().timer("stage.evaluate"):
        result = evaluate_protectors(
            context,
            protectors,
            model,
            runs=args.runs,
            max_hops=args.hops,
            rng=rng.fork("eval"),
            backend=args.backend,
            checkpoint=checkpoint,
            executor=getattr(args, "executor", None),
        )
    print(
        f"{name} with |P|={len(protectors)} under {model.name}: "
        f"final infected={result.final_infected_mean:.1f}, "
        f"protected bridge fraction={result.protected_bridge_fraction:.3f}"
    )
    series = result.infected_per_hop
    print("infected per hop: " + " ".join(f"{v:.1f}" for v in series))
    if args.chart:
        from repro.utils.ascii_chart import line_chart

        print(line_chart({name: series}, height=12, log_scale=True))
    return 0


def _run_one_experiment(key: str, args) -> dict:
    config = paper_experiment(key)
    overrides = {
        field: getattr(args, field)
        for field in ("scale", "runs", "draws", "seed")
        if getattr(args, field) is not None and hasattr(config, field)
    }
    if overrides:
        config = config.scaled(**overrides)
    if isinstance(config, TableConfig):
        result = run_table(config)
        print(render_table(result))
        return table_to_dict(result)
    result = run_figure(config)
    print(render_figure(result))
    return figure_to_dict(result)


def _cmd_experiment(args) -> int:
    keys = sorted(PAPER_EXPERIMENTS) if args.key == "all" else [args.key]
    payloads = []
    for key in keys:
        payloads.append(_run_one_experiment(key, args))
        print()
    if args.json_path:
        document = payloads[0] if len(payloads) == 1 else {"experiments": payloads}
        save_json(document, args.json_path)
        print(f"saved JSON to {args.json_path}")
    if args.markdown_path:
        from repro.experiments.markdown import roster_markdown

        with open(args.markdown_path, "w", encoding="utf-8") as handle:
            handle.write(
                roster_markdown(payloads, heading="Experiment report")
            )
        print(f"saved markdown to {args.markdown_path}")
    return 0


def _print_parallel_line(
    workers: int, serial_seconds: float, parallel_seconds: float, what: str
) -> None:
    """Satellite of ``repro bench``: workers used + parallel efficiency."""
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print(
        f"parallel[{what}] workers={workers}: {parallel_seconds:.3f}s "
        f"vs {serial_seconds:.3f}s serial = {speedup:.2f}x speedup, "
        f"efficiency={speedup / max(workers, 1):.2f}"
    )


def _bench_sigma(args, context, model, rng: RngStream) -> int:
    """Sigma-estimation throughput through a kernel backend.

    Times σ̂ over a slice of the greedy candidate pool — one batched
    kernel sweep per candidate over ``--runs`` coupled worlds — which is
    exactly the work greedy/CELF spend their time on. Compare
    ``--backend python`` against ``--backend numpy`` for the speedup.
    """
    from repro.algorithms.greedy import SigmaEstimator, candidate_pool
    from repro.obs.timers import Timer

    evaluator = SigmaEstimator(
        context,
        model=model,
        runs=args.runs,
        max_hops=args.hops,
        rng=rng.fork("sigma"),
        backend=args.backend,
        executor=getattr(args, "executor", None),
    )
    candidates = candidate_pool(context) or candidate_pool(context, "all")
    candidates = candidates[: args.candidates]
    if not candidates:
        print("no eligible protector candidates; nothing to benchmark")
        return 1
    evaluator.baseline  # sample worlds + baseline race outside the timer
    timer = Timer("bench-sigma")
    with timer:
        with metrics().timer("stage.bench"):
            for candidate in candidates:
                evaluator.sigma([candidate])
    evaluations = len(candidates)
    rate = evaluations / max(timer.elapsed, 1e-9)
    worlds = evaluations * evaluator.runs
    print(
        f"sigma[{model.name}] on {args.dataset} (scale={args.scale}) via "
        f"backend={evaluator.backend}: {evaluations} evaluations x "
        f"{evaluator.runs} worlds in {timer.elapsed:.3f}s = "
        f"{rate:.2f} sigma/s ({worlds / max(timer.elapsed, 1e-9):.1f} worlds/s)"
    )
    if args.workers is not None:
        from repro.exec.pool import resolve_workers

        worker_count = resolve_workers(args.workers, evaluations)
        parallel_timer = Timer("bench-sigma-parallel")
        with parallel_timer:
            with metrics().timer("stage.bench.parallel"):
                evaluator.sigma_many([[candidate] for candidate in candidates])
        _print_parallel_line(
            worker_count, timer.elapsed, parallel_timer.elapsed, "sigma"
        )
    registry = metrics()
    if registry.enabled:
        for metric_name, value in sorted(registry.counter_values().items()):
            print(f"  {metric_name} = {value}")
    return 0


def _cmd_bench(args) -> int:
    """Micro-benchmark: fixed-replica diffusion runs on one dataset replica.

    Prints runs/second; under ``--metrics-out`` the work counters
    (node/edge visits, rounds, activations) land in the JSON, giving a
    machine-readable work-per-run record for regression tracking.
    With ``--backend`` the benchmark switches to sigma-estimation
    throughput through the named kernel backend (see ``docs/kernels.md``).
    """
    from repro.diffusion.base import SeedSets
    from repro.obs.timers import Timer

    rng = RngStream(args.seed, name="cli-bench")
    _dataset, context = _build_instance(args, rng)
    if args.model is None:
        args.model = "opoao" if args.backend is not None else "doam"
    model = make_model(args.model)
    if args.backend is not None:
        return _bench_sigma(args, context, model, rng)
    seeds = SeedSets(rumors=context.rumor_seed_ids())
    indexed = context.indexed
    timer = Timer("bench")
    with timer:
        with metrics().timer("stage.bench"):
            for replica in range(args.runs):
                model.run(
                    indexed,
                    seeds,
                    rng=rng.replica(replica) if model.stochastic else None,
                    max_hops=args.hops,
                )
    rate = args.runs / max(timer.elapsed, 1e-9)
    print(
        f"{model.name} on {args.dataset} (scale={args.scale}): "
        f"{args.runs} runs in {timer.elapsed:.3f}s = {rate:.1f} runs/s"
    )
    if args.workers is not None and model.stochastic:
        from repro.diffusion.simulation import MonteCarloSimulator
        from repro.exec.pool import resolve_workers

        worker_count = resolve_workers(args.workers, args.runs)
        simulator = MonteCarloSimulator(
            model,
            runs=args.runs,
            max_hops=args.hops,
            executor=getattr(args, "executor", None),
        )
        parallel_timer = Timer("bench-parallel")
        with parallel_timer:
            with metrics().timer("stage.bench.parallel"):
                simulator.simulate(indexed, seeds, rng=rng)
        _print_parallel_line(
            worker_count, timer.elapsed, parallel_timer.elapsed, model.name
        )
    registry = metrics()
    if registry.enabled:
        for metric_name, value in sorted(registry.counter_values().items()):
            print(f"  {metric_name} = {value}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.lcrb.report import build_instance_report, render_instance_report

    rng = RngStream(args.seed, name="cli-inspect")
    _, context = _build_instance(args, rng)
    print(render_instance_report(build_instance_report(context)))
    return 0


def _cmd_sources(args) -> int:
    from repro.algorithms.source_detection import estimate_sources
    from repro.diffusion.base import INFECTED, SeedSets
    from repro.diffusion.doam import DOAMModel
    from repro.graph.traversal import shortest_hop_distance

    rng = RngStream(args.seed, name="cli-sources")
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    indexed = dataset.graph.to_indexed()
    nodes = list(dataset.graph.nodes())
    print(f"{'trial':>5} {'true source':>12} {'estimate':>12} {'hop error':>9}")
    for trial in range(args.trials):
        source = rng.fork("trial", trial).choice(nodes)
        outcome = DOAMModel().run(
            indexed,
            SeedSets(rumors=[indexed.index(source)]),
            max_hops=args.spread_hops,
        )
        infected = [
            indexed.labels[i]
            for i, state in enumerate(outcome.states)
            if state == INFECTED
        ]
        if len(infected) < 3:
            print(f"{trial:>5} {source!s:>12} {'(tiny spread)':>12} {'-':>9}")
            continue
        (estimate,) = estimate_sources(dataset.graph, infected, method=args.method)
        hops = shortest_hop_distance(dataset.graph, estimate, source)
        if hops is None:
            hops = shortest_hop_distance(dataset.graph, source, estimate)
        print(f"{trial:>5} {source!s:>12} {estimate!s:>12} {str(hops):>9}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import mixing_sweep
    from repro.utils.tables import format_table

    rows = mixing_sweep(
        mixings=args.mixings, nodes=args.nodes, draws=args.draws, seed=args.seed
    )
    table_rows = [
        [
            f"{row['value']:.2f}",
            row["boundary_edges"],
            row["bridge_ends"],
            row["scbg_protectors"],
            row["proximity_protectors"],
        ]
        for row in rows
    ]
    print(
        format_table(
            ["mixing", "boundary edges", "|B|", "SCBG |P|", "Proximity |P|"],
            table_rows,
            title="Community-mixing sweep",
        )
    )
    return 0


def _cmd_gossip(args) -> int:
    from repro.gossip import GossipConfig, GossipMonteCarlo

    rng = RngStream(args.seed, name="cli-gossip")
    dataset, context = _build_instance(args, rng)
    config = GossipConfig(
        protocol=args.protocol,
        fanout=args.fanout,
        rumor_budget=args.rumor_budget,
        stop_rule=args.stop_rule,
        stop_k=args.stop_k,
        max_rounds=args.rounds,
        anti_entropy_every=args.anti_entropy_every,
        protector_delay=args.protector_delay,
        protector_budget=args.protector_budget,
    )
    checkpoint = _checkpoint_store(args)
    if args.compare:
        from repro.lcrb.gossip_blocking import GossipBlockingScenario

        scenario = GossipBlockingScenario(
            config,
            runs=args.runs,
            budget=args.protectors,
            checkpoint=checkpoint,
            executor=getattr(args, "executor", None),
        )
        with metrics().timer("stage.gossip"):
            result = scenario.run(context, rng.fork("blocking"))
        print(result.to_table())
        return 0
    if args.protector_selector == "none":
        protector_ids: List[int] = []
        name = "NoBlocking"
    else:
        selector = _selector(
            args.protector_selector, rng, args, checkpoint=checkpoint
        )
        with metrics().timer("stage.select"):
            chosen = selector.select(context, budget=args.protectors)
        protector_ids = sorted(context.indexed.indices(chosen))
        name = selector.name
    runner = GossipMonteCarlo(
        config,
        runs=args.runs,
        checkpoint=checkpoint,
        executor=getattr(args, "executor", None),
    )
    with metrics().timer("stage.gossip"):
        aggregate = runner.run(
            context.indexed,
            context.rumor_seed_ids(),
            protector_ids,
            rng=rng.fork("gossip"),
        )
    print(
        f"{config.protocol} gossip on {args.dataset} "
        f"({aggregate.replicas} replicas, {name}, |P|={len(protector_ids)}): "
        f"mean infected={aggregate.mean_infected:.2f}, "
        f"mean protected={aggregate.mean_protected:.2f}, "
        f"worst infected={aggregate.max_infected}"
    )
    print(
        f"messages/replica={aggregate.mean_messages:.1f} "
        f"(total={aggregate.messages_total}); "
        f"events={aggregate.events}, node-rounds={aggregate.rounds}"
    )
    by_kind = " ".join(
        f"{kind}={count}"
        for kind, count in sorted(aggregate.messages.items())
        if count
    )
    print(f"messages by kind: {by_kind or 'none'}")
    series = aggregate.mean_series()
    print("infected per round: " + " ".join(f"{value:.1f}" for value in series))
    return 0


def _parse_label(token: str):
    """A CLI seed token as a graph label (ints stay ints)."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def _cmd_distributed(args) -> int:
    from repro.lcrb.multicascade import DistributedBlockingScenario

    rng = RngStream(args.seed, name="cli-distributed")
    _dataset, context = _build_instance(args, rng)
    scenario = DistributedBlockingScenario(
        make_model(args.model),
        campaigns=args.campaigns,
        budget=args.budget,
        runs=args.runs,
        select_runs=args.select_runs,
        max_hops=args.hops,
        priority=args.priority,
    )
    with metrics().timer("stage.distributed"):
        result = scenario.run(context, rng.fork("scenario"))
    print(result.to_table())
    if args.chart:
        from repro.utils.ascii_chart import line_chart

        print(
            line_chart(
                {
                    "distributed": result.distributed_series,
                    "centralized": result.centralized_series,
                },
                height=12,
                log_scale=True,
            )
        )
    if args.json_path:
        save_json(result.to_dict(), args.json_path)
        print(f"saved JSON to {args.json_path}")
    return 0


def _cmd_impressions(args) -> int:
    from repro.lcrb.multicascade import ImpressionScenario

    rng = RngStream(args.seed, name="cli-impressions")
    _dataset, context = _build_instance(args, rng)
    if args.campaign_seeds is not None:
        campaigns = [
            [_parse_label(token) for token in spec.split(",") if token.strip()]
            for spec in args.campaign_seeds
        ]
    else:
        # Auto-selection: one maxdegree pool split round-robin, so the
        # campaigns field disjoint seed sets without any coordination
        # machinery in the CLI.
        selector = _selector("maxdegree", rng, args)
        chosen = selector.select(context, args.campaigns * args.budget)
        campaigns = [chosen[c :: args.campaigns] for c in range(args.campaigns)]
    if args.weights is not None:
        weights = [float(token) for token in args.weights.split(",")]
    else:
        weights = [1.0] * (len(campaigns) + 1)
    scenario = ImpressionScenario(
        make_model(args.model),
        weights=weights,
        threshold=args.threshold,
        runs=args.runs,
        max_hops=args.hops,
        priority=args.priority,
        checkpoint=_checkpoint_store(args),
    )
    with metrics().timer("stage.impressions"):
        result = scenario.run(context, campaigns, rng.fork("scenario"))
    print(result.to_table())
    if args.json_path:
        save_json(result.to_dict(), args.json_path)
        print(f"saved JSON to {args.json_path}")
    return 0


def _cmd_serve(args) -> int:
    """Run the warm query service (or its in-process load generator).

    Default transport is newline-JSON over stdin/stdout; ``--socket``
    serves a unix socket instead. ``--loadgen N`` skips serving and
    replays the deterministic query/update mix, printing the report
    (this is what ``benchmarks/bench_serve.py`` wraps).
    """
    import asyncio
    import json as json_module

    from repro.serve import RumorBlockingService, run_loadgen, serve_stdio
    from repro.serve import serve_unix_socket

    with metrics().timer("stage.load"):
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        indexed = dataset.graph.to_indexed()
        community_ids = sorted(
            indexed.indices(dataset.rumor_community_nodes)
        )
    service = RumorBlockingService(
        indexed,
        community_ids,
        semantics=args.semantics,
        steps=args.steps,
        seed=args.seed,
        initial_worlds=args.initial_worlds,
        max_worlds=args.max_worlds,
        executor=getattr(args, "executor", None),
        backend=getattr(args, "backend", None),
    )
    if args.loadgen is not None:
        with metrics().timer("stage.loadgen"):
            report = run_loadgen(
                service,
                queries=args.loadgen,
                update_every=args.update_every,
                budget=args.budget,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
            )
        report.pop("rrsets_sampled_trace", None)
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.socket is not None:
        print(f"serving on unix socket {args.socket}", file=sys.stderr)
        asyncio.run(serve_unix_socket(service, args.socket))
        return 0
    asyncio.run(serve_stdio(service))
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "stats": _cmd_stats,
    "communities": _cmd_communities,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
    "sources": _cmd_sources,
    "sweep": _cmd_sweep,
    "gossip": _cmd_gossip,
    "distributed": _cmd_distributed,
    "impressions": _cmd_impressions,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
}


def _run_command(command, args) -> int:
    """Run one command with at most one shared process pool.

    When ``--workers`` is given, a single :class:`~repro.exec.pool.\
ParallelExecutor` is built up front and stashed on ``args.executor``;
    every parallel consumer the command touches (selection, evaluation,
    benchmarks, gossip) submits to it, so one invocation creates exactly
    one pool and one graph publication. Without ``--workers`` the
    attribute is ``None`` and every consumer runs serially.
    """
    workers = getattr(args, "workers", None)
    if workers is None:
        args.executor = None
        return command(args)
    from repro.exec.pool import ParallelExecutor

    with ParallelExecutor(
        workers,
        timeout=getattr(args, "chunk_timeout", None),
        retries=getattr(args, "chunk_retries", None),
    ) as executor:
        args.executor = executor
        return command(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ReproError` (a bad parameter value, a
    backend whose dependency is missing, a checkpoint that does not
    match) prints one ``repro: error: <Type>: <message>`` line to
    stderr and returns 2, like a usage error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is None:
        for flag, value in (
            ("--chunk-timeout", getattr(args, "chunk_timeout", None)),
            ("--chunk-retries", getattr(args, "chunk_retries", None)),
        ):
            if value is not None:
                parser.error(f"{flag} needs --workers")
    configure_logging(args.verbose)
    command = _COMMANDS[args.command]
    metrics_path = getattr(args, "metrics_out", None)
    try:
        if metrics_path is None:
            return _run_command(command, args)
        registry = MetricsRegistry()
        with use_registry(registry):
            code = _run_command(command, args)
    except ReproError as error:
        print(f"repro: error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    registry.write_json(
        metrics_path,
        extra={
            "command": args.command,
            "dataset": getattr(args, "dataset", None),
            "seed": getattr(args, "seed", None),
        },
    )
    print(f"wrote metrics JSON to {metrics_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())

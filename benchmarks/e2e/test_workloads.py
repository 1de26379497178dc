"""Tiny-size smoke runs of every workload, and BENCHMARK.json consistency."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e import layers
from benchmarks.e2e.runner import END_TO_END, run_workload
from benchmarks.e2e.workloads import WORKLOADS, workload

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "serve-read": dict(seed_sets=2, steps=3, worlds=4, setup_reps=1),
    "serve-churn": dict(seed_sets=2, steps=2, worlds=4, setup_reps=1),
    "select-cold": dict(
        steps=3, initial_worlds=4, max_worlds=8, verify_runs=4, setup_reps=1
    ),
    "figure-opoao": dict(
        scale=0.02, runs=2, greedy_runs=1, greedy_max_candidates=3, hops=4,
        setup_reps=1,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    outcome = run_workload(workload(name, **TINY[name]), seed=3, seconds=0.05)
    result = outcome["result"]
    assert result["correct"], outcome["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (n, u) for n, u, _ in END_TO_END
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_set_up_is_timed_even_when_the_loop_is_short():
    sizes = dict(TINY["figure-opoao"], setup_reps=3)
    outcome = run_workload(workload("figure-opoao", **sizes), seed=3, seconds=0.05)
    setups = outcome["detail"]["setup_s"]
    assert len(setups) == 3
    assert outcome["result"]["metrics"]["setup_s"]["value"] == sorted(setups)[1]


@pytest.mark.parametrize("name", ["serve-read", "serve-churn"])
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    outcome = run_workload(
        workload(name, **TINY[name]), seed=3, seconds=0.2, trace=True,
        results_dir=tmp_path,
    )
    metrics = outcome["result"]["metrics"]
    assert list(metrics) == [n for n, _, _ in layers.PER_LAYER]
    assert outcome["detail"]["ops"]["traced"] >= 1
    assert metrics["serve.query.self_ms"]["value"] > 0
    assert 0 <= metrics["trace.unattributed_frac"]["value"] < 1
    spans = json.loads((tmp_path / f"trace_{name}.json").read_text())["spans"]
    assert {span["name"] for span in spans} >= {"op", "protocol.process_request"}


def test_same_seed_same_inputs():
    read = workload("serve-read", **TINY["serve-read"])
    first, second = read.setup(5), read.setup(5)
    try:
        assert first.seed_sets == second.seed_sets
        assert [read.request(first, i) for i in range(6)] == [
            read.request(second, i) for i in range(6)
        ]
    finally:
        read.close(first)
        read.close(second)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )

"""Unit tests for the CLI (in-process, small scales)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_keys_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_verbosity_flag(self):
        args = build_parser().parse_args(["-vv", "datasets"])
        assert args.verbose == 2

    @pytest.mark.parametrize("flag", ["--chunk-timeout", "--chunk-retries"])
    def test_chunk_flags_need_workers(self, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["select", "--dataset", "enron-small", flag, "3"])
        assert raised.value.code == 2
        assert f"{flag} needs --workers" in capsys.readouterr().err


class TestLibraryErrors:
    """A library error exits 2 with one stderr line, not a traceback."""

    def test_invalid_parameter_value(self, capsys):
        code = main(
            ["select", "--dataset", "hep", "--scale", "-1", "--algorithm", "scbg"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: error: ValidationError: scale must be > 0, got -1.0\n"
        )

    def test_backend_without_its_dependency(self, capsys, monkeypatch):
        from repro.kernels import registry

        def no_numpy():
            raise ImportError("No module named 'numpy'")

        monkeypatch.setitem(registry._FACTORIES, "numpy", no_numpy)
        monkeypatch.delitem(registry._INSTANCES, "numpy", raising=False)
        argv = ["select", "--dataset", "hep", "--scale", "0.02"]
        argv += ["--algorithm", "greedy", "--budget", "1", "--backend", "numpy"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: BackendUnavailableError: ")
        assert "perf" in err and err.count("\n") == 1


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "hep" in out and "enron-large" in out

    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "hep", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "|N|=" in out and "rumor community" in out

    def test_communities(self, capsys):
        assert main(["communities", "--dataset", "hep", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "communities detected" in out

    def test_select_scbg(self, capsys):
        code = main(
            [
                "select",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--algorithm",
                "scbg",
            ]
        )
        assert code == 0
        assert "SCBG selected" in capsys.readouterr().out

    def test_select_ris_greedy(self, capsys):
        code = main(
            [
                "select",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--algorithm",
                "ris-greedy",
                "--budget",
                "3",
                "--epsilon",
                "0.2",
                "--delta",
                "0.1",
            ]
        )
        assert code == 0
        assert "RIS-Greedy selected" in capsys.readouterr().out

    def test_simulate_ris_greedy_opoao(self, capsys):
        code = main(
            [
                "simulate",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--model",
                "opoao",
                "--algorithm",
                "ris-greedy",
                "--budget",
                "2",
                "--runs",
                "5",
            ]
        )
        assert code == 0
        assert "RIS-Greedy" in capsys.readouterr().out

    def test_simulate_noblocking(self, capsys):
        code = main(
            [
                "simulate",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--model",
                "doam",
                "--algorithm",
                "none",
                "--runs",
                "1",
                "--hops",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NoBlocking" in out
        assert "infected per hop" in out

    def test_simulate_with_chart(self, capsys):
        code = main(
            [
                "simulate",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--model",
                "doam",
                "--algorithm",
                "maxdegree",
                "--budget",
                "2",
                "--runs",
                "1",
                "--hops",
                "6",
                "--chart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MaxDegree" in out
        assert "+------" in out  # the chart's x-axis line

    def test_select_greedy_path(self, capsys):
        code = main(
            [
                "select",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--algorithm",
                "greedy",
                "--budget",
                "1",
            ]
        )
        assert code == 0
        assert "selected 1 protector" in capsys.readouterr().out

    def test_inspect(self, capsys):
        code = main(["inspect", "--dataset", "hep", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rumor community" in out
        assert "conductance" in out

    def test_sources(self, capsys):
        code = main(
            [
                "sources",
                "--dataset",
                "hep",
                "--scale",
                "0.02",
                "--trials",
                "2",
                "--spread-hops",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "true source" in out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--nodes", "300", "--draws", "1", "--mixings", "0.05", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Community-mixing sweep" in out
        assert "SCBG |P|" in out

    def test_experiment_table_with_json_and_markdown(self, tmp_path, capsys):
        json_path = tmp_path / "table.json"
        md_path = tmp_path / "table.md"
        code = main(
            [
                "experiment",
                "table1",
                "--scale",
                "0.02",
                "--draws",
                "1",
                "--json",
                str(json_path),
                "--markdown",
                str(md_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DOAM" in out
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "table"
        assert len(payload["rows"]) == 9
        markdown = md_path.read_text()
        assert markdown.startswith("# Experiment report")
        assert "Table I" in markdown


class TestMetricsOut:
    def test_select_ris_greedy_emits_schema(self, tmp_path, capsys):
        """Golden-schema check for --metrics-out (the acceptance criterion)."""
        path = tmp_path / "metrics.json"
        code = main(
            [
                "select",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--algorithm",
                "ris-greedy",
                "--budget",
                "2",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        assert "wrote metrics JSON" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.obs/v1"
        assert document["command"] == "select"
        assert document["dataset"] == "enron-small"
        assert set(document) >= {"counters", "gauges", "histograms", "timers"}
        counters = document["counters"]
        assert counters["sketch.rrsets_sampled"] > 0
        assert counters["selector.sigma_evaluations"] > 0
        assert counters["selector.celf_queue_hits"] > 0
        assert document["timers"]["stage.load"]["calls"] == 1
        assert document["timers"]["stage.select"]["calls"] == 1

    def test_simulate_metrics_include_world_counters(self, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--model",
                "opoao",
                "--algorithm",
                "maxdegree",
                "--budget",
                "2",
                "--runs",
                "4",
                "--hops",
                "6",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["sim.worlds"] == 4
        assert counters["sim.runs"] == 4
        assert counters["sim.node_visits"] > 0

    def test_bench_subcommand(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = main(
            [
                "bench",
                "--dataset",
                "enron-small",
                "--scale",
                "0.02",
                "--model",
                "doam",
                "--runs",
                "3",
                "--hops",
                "6",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runs/s" in out
        counters = json.loads(path.read_text())["counters"]
        assert counters["sim.runs"] == 3
        assert counters["sim.edge_visits"] > 0

    def test_metrics_off_by_default(self, capsys):
        from repro.obs import NULL_REGISTRY, metrics

        assert main(["datasets"]) == 0
        assert metrics() is NULL_REGISTRY
        assert NULL_REGISTRY.to_dict()["counters"] == {}


class TestGossipCommand:
    BASE = [
        "gossip",
        "--dataset",
        "hep",
        "--scale",
        "0.03",
        "--seed",
        "13",
        "--runs",
        "4",
    ]

    def test_gossip_runs_and_reports(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "push gossip on hep" in out
        assert "messages by kind:" in out
        assert "infected per round:" in out

    def test_gossip_is_reproducible(self, capsys):
        assert main(self.BASE) == 0
        first = capsys.readouterr().out
        assert main(self.BASE) == 0
        assert capsys.readouterr().out == first

    def test_gossip_serial_matches_workers(self, capsys):
        assert main(self.BASE) == 0
        serial = capsys.readouterr().out
        assert main(self.BASE + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_gossip_protocol_and_selector_flags(self, capsys):
        argv = self.BASE + [
            "--protocol",
            "push-pull",
            "--stop-rule",
            "counter",
            "--stop-k",
            "2",
            "--anti-entropy-every",
            "5",
            "--protector-selector",
            "none",
            "--rounds",
            "10",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "push-pull gossip" in out
        assert "NoBlocking" in out
        assert "pull.request=" in out

    def test_gossip_checkpoint_resume_matches(self, tmp_path, capsys):
        path = tmp_path / "gossip.ckpt"
        assert main(self.BASE) == 0
        uninterrupted = capsys.readouterr().out
        short = [arg if arg != "4" else "2" for arg in self.BASE]
        assert main(short + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        resumed_argv = self.BASE + ["--checkpoint", str(path), "--resume"]
        assert main(resumed_argv) == 0
        assert capsys.readouterr().out == uninterrupted

    def test_gossip_metrics_out(self, tmp_path):
        path = tmp_path / "gossip-metrics.json"
        assert main(self.BASE + ["--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["counters"]["gossip.replicas"] == 4
        assert payload["counters"]["gossip.messages"] > 0
        assert payload["counters"]["gossip.events"] > 0
        assert "gossip.final_infected" in payload["histograms"]

    def test_gossip_compare_table(self, capsys):
        argv = self.BASE + ["--compare", "--protectors", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "gossip blocking" in out
        for strategy in ("none", "random", "maxdegree", "ris-greedy"):
            assert strategy in out


class TestServeCommand:
    BASE = [
        "serve",
        "--dataset",
        "enron-small",
        "--scale",
        "0.02",
        "--seed",
        "13",
        "--steps",
        "6",
        "--initial-worlds",
        "16",
        "--max-worlds",
        "32",
        "--epsilon",
        "0.3",
        "--delta",
        "0.1",
        "--loadgen",
        "8",
        "--update-every",
        "4",
        "--budget",
        "3",
    ]

    def test_loadgen_report(self, capsys):
        assert main(self.BASE) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 8
        assert report["cold_queries"] >= 1
        assert "cold_to_warm_ratio" in report
        assert "rrsets_sampled_trace" not in report  # trimmed for TTY

    def test_loadgen_counts_are_reproducible(self, capsys):
        assert main(self.BASE) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.BASE) == 0
        second = json.loads(capsys.readouterr().out)
        for key in ("seconds", "qps", "latency_ms"):
            first.pop(key), second.pop(key)
        assert first == second

    def test_loadgen_metrics_out(self, tmp_path):
        path = tmp_path / "serve-metrics.json"
        assert main(self.BASE + ["--metrics-out", str(path)]) == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["serve.queries"] == 8
        assert counters["serve.queries.cold"] >= 1
        assert counters["serve.rrsets.sampled"] > 0
        assert counters["serve.updates"] == 1


class TestMultiCascadeCommands:
    DISTRIBUTED = [
        "distributed",
        "--dataset", "enron-small",
        "--scale", "0.02",
        "--model", "doam",
        "--campaigns", "2",
        "--budget", "1",
        "--runs", "4",
        "--select-runs", "2",
        "--hops", "8",
    ]

    def test_distributed_reports_price(self, capsys):
        assert main(self.DISTRIBUTED) == 0
        out = capsys.readouterr().out
        assert "distributed blocking" in out
        assert "price of non-cooperation" in out
        assert "campaign 2" in out

    def test_distributed_json_and_chart(self, tmp_path, capsys):
        path = tmp_path / "distributed.json"
        argv = self.DISTRIBUTED + ["--json", str(path), "--chart"]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert len(payload["campaigns"]) == 2
        assert "price_of_noncooperation" in payload
        assert len(payload["distributed_series"]) == len(
            payload["centralized_series"]
        )

    def test_distributed_is_reproducible(self, capsys):
        assert main(self.DISTRIBUTED + ["--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(self.DISTRIBUTED + ["--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    IMPRESSIONS = [
        "impressions",
        "--dataset", "enron-small",
        "--scale", "0.02",
        "--model", "ic",
        "--campaigns", "2",
        "--budget", "1",
        "--runs", "6",
        "--hops", "8",
    ]

    def test_impressions_reports_domination(self, capsys):
        assert main(self.IMPRESSIONS) == 0
        out = capsys.readouterr().out
        assert "impression domination" in out
        assert "rumor-dominated nodes (mean)" in out
        assert "campaign 2" in out

    def test_impressions_weights_and_priority(self, tmp_path, capsys):
        path = tmp_path / "impressions.json"
        argv = self.IMPRESSIONS + [
            "--weights", "2,1,1",
            "--threshold", "2.0",
            "--priority", "rumor-first",
            "--json", str(path),
        ]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert payload["weights"] == [2.0, 1.0, 1.0]
        assert payload["threshold"] == 2.0
        assert payload["priority"] == [0, 1, 2]
        assert len(payload["cascade_means"]) == 3

    def test_impressions_checkpoint_resume_matches(self, tmp_path, capsys):
        path = tmp_path / "impressions.ckpt"
        argv = self.IMPRESSIONS + ["--checkpoint", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

"""Unit tests for the benchmark-regression gate (benchmarks/check_regression.py)."""

import json

import pytest

from benchmarks.check_regression import (
    DEFAULT_TOLERANCE,
    check,
    compare_documents,
    main,
    summary_table,
    update,
)


def _document(counters, name="perf_demo", fast=True, scale=0.05, gauges=None):
    return {
        "schema": "repro.bench/v1",
        "name": name,
        "fast": fast,
        "scale": scale,
        "wall_clock_seconds": 0.1,
        "counters": counters,
        "gauges": gauges or {},
    }


class TestCompareDocuments:
    def test_identical_passes(self):
        doc = _document({"sim.edge_visits": 1000})
        failures, notes = compare_documents(doc, doc)
        assert failures == [] and notes == []

    def test_growth_within_tolerance_passes(self):
        base = _document({"sim.edge_visits": 1000})
        current = _document({"sim.edge_visits": 1099})
        failures, _ = compare_documents(base, current)
        assert failures == []

    def test_growth_beyond_ten_percent_fails(self):
        base = _document({"sim.edge_visits": 1000})
        current = _document({"sim.edge_visits": 1101})
        failures, _ = compare_documents(base, current)
        assert len(failures) == 1
        assert "sim.edge_visits" in failures[0]
        assert "regressed" in failures[0]

    def test_growth_from_zero_fails(self):
        failures, _ = compare_documents(
            _document({"new.work": 0}), _document({"new.work": 1})
        )
        assert len(failures) == 1

    def test_missing_counter_fails(self):
        failures, _ = compare_documents(
            _document({"sim.rounds": 5}), _document({})
        )
        assert failures and "missing" in failures[0]

    def test_shrunk_counter_is_informational(self):
        failures, notes = compare_documents(
            _document({"sim.rounds": 100}), _document({"sim.rounds": 50})
        )
        assert failures == []
        assert notes and "improved" in notes[0]

    def test_new_counter_without_baseline_fails(self):
        failures, _ = compare_documents(
            _document({"sim.rounds": 10}),
            _document({"sim.rounds": 10, "sketch.rrsets_sampled": 3}),
        )
        assert len(failures) == 1
        assert "'sketch.rrsets_sampled'" in failures[0]
        assert "no baseline" in failures[0]

    def test_missing_gauge_fails(self):
        failures, _ = compare_documents(
            _document({"sim.rounds": 10}, gauges={"sketch.index_nodes": 1831.0}),
            _document({"sim.rounds": 10}, gauges={"sketch.set_count": 269.0}),
        )
        assert len(failures) == 1
        assert "gauge 'sketch.index_nodes' missing" in failures[0]

    def test_gauge_values_are_not_gated(self):
        failures, notes = compare_documents(
            _document({"sim.rounds": 10}, gauges={"sketch.set_count": 269.0}),
            _document({"sim.rounds": 10}, gauges={"sketch.set_count": 900.0}),
        )
        assert failures == [] and notes == []

    def test_new_gauge_without_baseline_passes(self):
        failures, _ = compare_documents(
            _document({"sim.rounds": 10}),
            _document({"sim.rounds": 10}, gauges={"sketch.set_count": 269.0}),
        )
        assert failures == []

    def test_config_mismatch_fails_before_counters(self):
        base = _document({"sim.rounds": 10}, scale=0.05)
        current = _document({"sim.rounds": 10**6}, scale=0.02)
        failures, _ = compare_documents(base, current)
        assert len(failures) == 1
        assert "config mismatch" in failures[0]

    def test_custom_tolerance(self):
        base = _document({"sim.rounds": 100})
        current = _document({"sim.rounds": 140})
        assert compare_documents(base, current, tolerance=0.5)[0] == []
        assert compare_documents(base, current, tolerance=0.1)[0] != []

    def test_default_tolerance_is_ten_percent(self):
        assert DEFAULT_TOLERANCE == pytest.approx(0.10)


class TestCheckAndUpdate:
    def _write(self, directory, counters, name="perf_demo"):
        directory.mkdir(exist_ok=True)
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(_document(counters, name=name)))
        return path

    def test_check_passes_and_fails(self, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.edge_visits": 1000})
        self._write(results, {"sim.edge_visits": 1000})
        assert check(baselines, results, 0.10) == 0
        self._write(results, {"sim.edge_visits": 2000})
        assert check(baselines, results, 0.10) == 1

    def test_check_fails_on_missing_result(self, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.rounds": 5})
        results.mkdir()
        assert check(baselines, results, 0.10) == 1

    def test_check_errors_without_baselines(self, tmp_path):
        (tmp_path / "baselines").mkdir()
        (tmp_path / "results").mkdir()
        assert check(tmp_path / "baselines", tmp_path / "results", 0.10) == 2

    def test_update_then_check_roundtrip(self, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(results, {"sim.edge_visits": 777})
        assert update(baselines, results) == 0
        assert check(baselines, results, 0.10) == 0

    def test_result_without_baseline_warns_not_fails(self, tmp_path, capsys):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.edge_visits": 1000})
        self._write(results, {"sim.edge_visits": 1000})
        self._write(results, {"gossip.events": 50}, name="fresh_bench")
        assert check(baselines, results, 0.10) == 0
        out = capsys.readouterr().out
        assert "warn: no baseline for BENCH_fresh_bench.json" in out
        assert "--update" in out

    def test_baseline_less_result_does_not_mask_failures(self, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.edge_visits": 1000})
        self._write(results, {"sim.edge_visits": 5000})
        self._write(results, {"gossip.events": 50}, name="fresh_bench")
        assert check(baselines, results, 0.10) == 1

    def test_failure_summary_lists_all_documents(self, tmp_path, capsys):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.edge_visits": 100, "sim.rounds": 10})
        self._write(results, {"sim.edge_visits": 500, "sim.rounds": 90})
        self._write(baselines, {"gossip.events": 10}, name="gossip_demo")
        self._write(results, {"gossip.events": 99}, name="gossip_demo")
        self._write(baselines, {"sketch.rrsets": 7}, name="missing_demo")
        assert check(baselines, results, 0.10) == 1
        out = capsys.readouterr().out
        summary = out[out.index("REGRESSION SUMMARY"):]
        # Every regressing counter of every document in ONE report,
        # including the baseline whose result never got emitted.
        assert "4 failure(s) across 3 document(s)" in summary
        for token in (
            "sim.edge_visits", "sim.rounds", "gossip.events",
            "BENCH_perf_demo.json", "BENCH_gossip_demo.json",
            "BENCH_missing_demo.json", "no result emitted",
        ):
            assert token in summary, token

    def test_passing_run_prints_no_summary(self, tmp_path, capsys):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, {"sim.rounds": 10})
        self._write(results, {"sim.rounds": 10})
        assert check(baselines, results, 0.10) == 0
        assert "REGRESSION SUMMARY" not in capsys.readouterr().out

    def test_summary_table_alignment(self):
        table = summary_table(
            [
                ("BENCH_a.json", "counter 'x' regressed: 1 -> 2"),
                ("BENCH_longer_name.json", "counter 'y' regressed: 3 -> 9"),
            ]
        )
        lines = table.splitlines()
        assert lines[0].startswith("REGRESSION SUMMARY: 2 failure(s)")
        # Failure column starts at the same offset on every row.
        offsets = {line.index("counter") for line in lines[3:]}
        assert len(offsets) == 1

    def test_main_cli_flags(self, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(results, {"sim.rounds": 9})
        argv = ["--baselines", str(baselines), "--results", str(results)]
        assert main(argv + ["--update"]) == 0
        assert main(argv) == 0
        self._write(results, {"sim.rounds": 90})
        assert main(argv) == 1
        assert main(argv + ["--tolerance", "20.0"]) == 0

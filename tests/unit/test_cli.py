"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "table2" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "masstree" in out
        assert "x99(100)" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "table2", "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "table2"
        assert data["rows"]

    def test_simulate(self, capsys):
        assert main([
            "simulate", "--queries", "2000", "--load", "0.3",
            "--slo-ms", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=tailguard" in out
        assert "p99=" in out

    def test_run_csv_output(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        assert main(["run", "table2", "--quick", "--csv", str(path)]) == 0
        content = path.read_text().splitlines()
        assert content[0] == "workload,quantity,model_ms,paper_ms"
        assert len(content) == 13  # header + 12 rows

    def test_trace_record_and_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "trace", "record", "--out", str(trace),
            "--queries", "500", "--load", "0.3",
        ]) == 0
        assert trace.exists()
        assert main([
            "trace", "replay", "--trace", str(trace),
            "--policy", "fifo",
        ]) == 0
        out = capsys.readouterr().out
        assert "replayed 500 queries under fifo" in out

    def test_trace_replay_is_policy_paired(self, capsys, tmp_path):
        """The same trace replayed twice gives identical summaries."""
        trace = tmp_path / "trace.jsonl"
        main(["trace", "record", "--out", str(trace), "--queries", "500"])
        capsys.readouterr()
        main(["trace", "replay", "--trace", str(trace)])
        first = capsys.readouterr().out
        main(["trace", "replay", "--trace", str(trace)])
        second = capsys.readouterr().out
        assert first == second


class TestFaultsCommand:
    def test_faults_run(self, capsys):
        assert main([
            "faults", "--queries", "2000", "--load", "0.3",
            "--mtbf-ms", "500", "--hedge",
        ]) == 0
        out = capsys.readouterr().out
        assert "server_failures=" in out
        assert "tasks_hedged=" in out
        assert "p99=" in out

    def test_faults_with_retries(self, capsys):
        assert main([
            "faults", "--queries", "2000", "--load", "0.3",
            "--mtbf-ms", "300", "--retries", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "tasks_retried=" in out


class TestErrorMapping:
    def test_configuration_error_exits_2(self, capsys):
        assert main([
            "faults", "--queries", "100", "--mtbf-ms", "-5",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("flags", [
        ["--retries", "2", "--backoff-ms", "nan"],
        ["--hedge", "--hedge-delay-ms", "nan"],
        ["--mtbf-ms", "nan"],
    ], ids=["backoff", "hedge-delay", "mtbf"])
    def test_nan_fault_parameter_exits_2(self, capsys, flags):
        assert main(["faults", "--queries", "100"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert "finite" in err

    @pytest.mark.parametrize("interval", ["nan", "inf", "-1"])
    def test_bad_sample_interval_exits_2(self, capsys, tmp_path, interval):
        """A NaN or infinite interval used to sample nothing, silently."""
        assert main([
            "trace", "run", "--trace-out", str(tmp_path / "run.jsonl"),
            "--format", "jsonl", "--queries", "100",
            "--sample-interval", interval,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert "finite" in err
        assert not (tmp_path / "run.jsonl").exists()

    @pytest.mark.parametrize("command", ["simulate", "trace run", "report"])
    def test_infinite_load_exits_2(self, capsys, tmp_path, command):
        """An infinite load used to run with every query arriving at t=0."""
        argv = command.split() + ["--queries", "100", "--load", "inf"]
        if command == "trace run":
            argv += ["--trace-out", str(tmp_path / "run.jsonl")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["report", "--percentile", "150"],
        ["report", "--percentile", "nan"],
        ["report", "--top", "-1"],
        ["report", "--retries", "-1"],
        ["faults", "--retries", "-1"],
    ], ids=["percentile-150", "percentile-nan", "top", "report-retries",
            "faults-retries"])
    def test_bad_report_and_retry_counts_exit_2(self, capsys, argv):
        """These used to exit 0: the percentile was ignored, ``--top -1``
        sliced off one waterfall and ``--retries -1`` meant no retry."""
        assert main(argv + ["--queries", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert err.count("\n") == 1

    def test_bad_slo_exits_2(self, capsys):
        assert main([
            "simulate", "--queries", "100", "--slo-ms", "-1",
        ]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_experiment_error_exits_1(self, capsys, monkeypatch):
        from repro.errors import ExperimentError

        def boom(name, quick=False, workers=None):
            raise ExperimentError("deliberate failure")

        monkeypatch.setattr("repro.cli.run_experiment", boom)
        assert main(["run", "table2"]) == 1
        err = capsys.readouterr().err
        assert err == "tailguard: error: deliberate failure\n"


class TestCombinedOutputs:
    def test_run_csv_and_json_together(self, capsys, tmp_path):
        """--csv and --json may be combined; each output is emitted and
        the human table is suppressed."""
        path = tmp_path / "rows.csv"
        assert main(["run", "table2", "--quick",
                     "--csv", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        # stdout: the csv confirmation line, then pure JSON.
        first, rest = out.split("\n", 1)
        assert first == f"wrote 12 rows to {path}"
        data = json.loads(rest)
        assert data["experiment_id"] == "table2"
        assert len(path.read_text().splitlines()) == 13
        assert "|" not in out  # no table

    def test_run_table_only_when_no_machine_output(self, capsys):
        assert main(["run", "table2", "--quick"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestOverloadCommand:
    def test_overload_run(self, capsys):
        assert main([
            "overload", "--queries", "3000", "--load", "1.2",
            "--degrade", "--breakers", "--mtbf-ms", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded_queries=" in out
        assert "shed_tasks=" in out
        assert "breaker_trips=" in out
        assert "coverage_p50=" in out
        assert "admit_probability=" in out

    def test_min_coverage_above_one_exits_2(self, capsys):
        assert main([
            "overload", "--queries", "100", "--degrade",
            "--min-coverage", "1.5",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert "min_coverage" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_nonpositive_breaker_threshold_exits_2(self, capsys):
        assert main([
            "overload", "--queries", "100", "--breakers",
            "--breaker-misses", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tailguard: configuration error:")
        assert err.count("\n") == 1

    def test_nonpositive_breaker_open_ms_exits_2(self, capsys):
        assert main([
            "overload", "--queries", "100", "--breakers",
            "--breaker-open-ms", "-1",
        ]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_drift_threshold_exits_2(self, capsys):
        assert main([
            "overload", "--queries", "100", "--drift",
            "--drift-threshold", "2.0",
        ]) == 2
        assert "configuration error" in capsys.readouterr().err


def _tiny_overload(quick, workers=None):
    """A registry-shaped shrink of ext_overload_sweep for round-trips."""
    from repro.experiments import extensions

    return extensions.ext_overload_sweep(loads=(1.2,), n_queries=1_500,
                                         workers=workers)


class TestOverloadRoundTrip:
    """Satellite: the overload counters survive every serialization hop
    — report rows -> ``run --json`` stdout, ``--csv`` files, and the
    parallel runner's worker -> parent merge."""

    COLUMNS = ("degraded_queries", "shed_tasks", "breaker_trips",
               "coverage_p50", "coverage_p99")

    def register(self, monkeypatch):
        from repro.experiments.registry import EXPERIMENTS

        monkeypatch.setitem(EXPERIMENTS, "tiny_overload", _tiny_overload)

    def test_json_round_trip(self, capsys, monkeypatch):
        self.register(monkeypatch)
        assert main(["run", "tiny_overload", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "ext_overload_sweep"
        assert len(data["rows"]) == 3
        for row in data["rows"]:
            for column in self.COLUMNS:
                assert column in row, f"{column} lost in JSON round-trip"
        by_mode = {row["mode"]: row for row in data["rows"]}
        # Non-vacuity: the robust modes actually degraded and shed.
        assert by_mode["degrade+breakers"]["degraded_queries"] > 0
        assert by_mode["degrade+breakers"]["shed_tasks"] > 0
        assert by_mode["degrade+breakers"]["breaker_trips"] > 0
        assert by_mode["reject-only"]["degraded_queries"] == 0

    def test_csv_matches_json(self, capsys, tmp_path, monkeypatch):
        import csv

        self.register(monkeypatch)
        path = tmp_path / "rows.csv"
        assert main(["run", "tiny_overload", "--json",
                     "--csv", str(path)]) == 0
        _, rest = capsys.readouterr().out.split("\n", 1)
        json_rows = json.loads(rest)["rows"]
        with open(path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(json_rows)
        for json_row, csv_row in zip(json_rows, csv_rows):
            assert set(csv_row) == set(json_row)
            for column, value in json_row.items():
                if isinstance(value, bool):
                    assert csv_row[column] == str(value)
                elif isinstance(value, (int, float)):
                    # str(float) round-trips exactly through the CSV.
                    assert float(csv_row[column]) == value, column
                else:
                    assert csv_row[column] == value

    def test_parallel_merge_matches_serial(self, capsys, monkeypatch):
        self.register(monkeypatch)
        assert main(["run", "tiny_overload", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)["rows"]
        assert main(["run", "tiny_overload", "--json",
                     "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)["rows"]
        assert serial == parallel


class TestReportCommand:
    ARGS = ["report", "--queries", "1500", "--load", "0.4",
            "--servers", "100", "--seed", "3"]

    def test_report_text(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "=== tail forensics ===" in out
        assert "latency attribution" in out
        assert "SLO budgets" in out
        assert "slowest queries" in out
        assert "queueing" in out and "service" in out

    def test_report_json_validates_against_schema(self, capsys):
        import pathlib

        from repro.obs.forensics import validate_report

        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"version", "run", "attribution", "slo",
                               "slowest_queries"}
        assert report["version"] == 1
        assert report["run"]["queries_measured"] > 0
        assert report["attribution"]["queries_attributed"] > 0
        schema_path = (pathlib.Path(__file__).resolve().parents[1]
                       / "data" / "report_schema.json")
        schema = json.loads(schema_path.read_text())
        assert validate_report(report, schema) == []

    def test_report_out_file(self, capsys, tmp_path):
        path = tmp_path / "forensics.json"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote forensics JSON to {path}" in out
        document = json.loads(path.read_text())
        assert document["version"] == 1

    def test_report_with_mitigations_attributes_them(self, capsys):
        assert main(self.ARGS + [
            "--json", "--mtbf-ms", "200", "--mttr-ms", "5",
            "--retries", "2", "--hedge",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        hedges = report["attribution"]["hedges"]
        assert hedges["hedges_launched"] > 0
        components = report["attribution"]["components"]
        mitigation_share = (components["retry_delay"]["share"]
                            + components["hedge_wait"]["share"])
        assert mitigation_share > 0.0

    def test_report_top_k_limits_waterfalls(self, capsys):
        assert main(self.ARGS + ["--json", "--top", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["slowest_queries"]) == 2
        latencies = [q["latency_ms"] for q in report["slowest_queries"]]
        assert latencies == sorted(latencies, reverse=True)

    def test_report_percentile_sets_the_tail(self, capsys):
        """``--percentile`` used to be ignored: every report said 99."""
        tails = {}
        for percentile in ("90", "99"):
            assert main(self.ARGS + ["--json", "--percentile",
                                     percentile]) == 0
            report = json.loads(capsys.readouterr().out)
            tails[percentile] = report["attribution"]["tail"]
        assert tails["90"]["percentile"] == 90.0
        assert tails["99"]["percentile"] == 99.0
        assert tails["90"]["n_tail"] > tails["99"]["n_tail"]

    def test_report_bad_slo_exits_2(self, capsys):
        assert main(["report", "--queries", "100", "--slo-ms", "-1"]) == 2
        assert "configuration error" in capsys.readouterr().err


def _tiny_attribution(quick, workers=None):
    """A registry-shaped shrink of ext_tail_attribution for round-trips."""
    from repro.experiments import extensions

    return extensions.ext_tail_attribution(n_queries=1_500, workers=workers)


class TestAttributionRoundTrip:
    """The attribution summary columns survive every serialization hop —
    report rows -> ``run --json`` stdout, ``--csv`` files, and the
    parallel runner's worker -> parent recorder merge."""

    COLUMNS = ("attr_queueing_share", "attr_service_share",
               "attr_retry_delay_p99", "attr_hedge_wait_p99",
               "burn_rate_fast", "burn_rate_slow")

    def register(self, monkeypatch):
        from repro.experiments.registry import EXPERIMENTS

        monkeypatch.setitem(EXPERIMENTS, "tiny_attribution",
                            _tiny_attribution)

    def test_json_round_trip(self, capsys, monkeypatch):
        self.register(monkeypatch)
        assert main(["run", "tiny_attribution", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "ext_tail_attribution"
        assert len(data["rows"]) == 3
        for row in data["rows"]:
            for column in self.COLUMNS:
                assert column in row, f"{column} lost in JSON round-trip"
        by_mode = {row["mode"]: row for row in data["rows"]}
        # Non-vacuity: mitigations only show up in the faulted mode.
        assert by_mode["retry+hedge"]["attr_hedge_wait_p99"] >= 0.0
        assert by_mode["clean"]["attr_retry_delay_p99"] == 0.0
        assert by_mode["clean"]["attr_hedge_wait_p99"] == 0.0
        for row in data["rows"]:
            assert 0.0 < row["attr_service_share"] <= 1.0

    def test_csv_matches_json(self, capsys, tmp_path, monkeypatch):
        import csv

        self.register(monkeypatch)
        path = tmp_path / "rows.csv"
        assert main(["run", "tiny_attribution", "--json",
                     "--csv", str(path)]) == 0
        _, rest = capsys.readouterr().out.split("\n", 1)
        json_rows = json.loads(rest)["rows"]
        with open(path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(json_rows)
        for json_row, csv_row in zip(json_rows, csv_rows):
            assert set(csv_row) == set(json_row)
            for column, value in json_row.items():
                if isinstance(value, (int, float)):
                    assert float(csv_row[column]) == value, column
                else:
                    assert csv_row[column] == value

    def test_parallel_merge_matches_serial(self, capsys, monkeypatch):
        self.register(monkeypatch)
        assert main(["run", "tiny_attribution", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)["rows"]
        assert main(["run", "tiny_attribution", "--json",
                     "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)["rows"]
        assert serial == parallel


class TestTraceRun:
    def test_chrome_export(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        assert main([
            "trace", "run", "--trace-out", str(out_path),
            "--queries", "800", "--load", "0.4", "--servers", "100",
            "--sample-interval", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "=== trace summary ===" in out
        assert "TASK_DEQUEUE" in out
        assert "--- sampled series ---" in out
        document = json.loads(out_path.read_text())
        events = document["traceEvents"]
        assert events
        assert all("ph" in e and "pid" in e and "tid" in e for e in events)
        assert any(e["ph"] == "X" for e in events)

    def test_jsonl_export(self, capsys, tmp_path):
        """A serial run and a ``--workers 2`` run, whose simulation
        executes in a worker process and merges home, export the same
        bytes and print the same summary."""
        out_path = tmp_path / "run.jsonl"
        outputs = []
        for workers in ("1", "2"):
            assert main([
                "trace", "run", "--trace-out", str(out_path),
                "--format", "jsonl", "--queries", "500", "--load", "0.3",
                "--sample-interval", "5", "--workers", workers,
            ]) == 0
            lines = out_path.read_text().splitlines()
            parsed = [json.loads(line) for line in lines]
            assert {"type", "time", "seq"} <= parsed[0].keys()
            assert any(p["type"] == "TASK_COMPLETE" for p in parsed)
            out = capsys.readouterr().out
            assert f"wrote {len(lines)} JSONL events" in out
            outputs.append((out_path.read_bytes(), out))
        assert outputs[1] == outputs[0]


class TestFederationCommand:
    def test_federation_text(self, capsys):
        assert main([
            "federation", "--shards", "2", "--servers-per-shard", "110",
            "--queries", "1500", "--load", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "federation: 2 shards x 110 servers (220 total)" in out
        assert "router=jsq" in out
        assert "p99=" in out
        assert "shard 0" in out and "shard 1" in out

    def test_federation_json(self, capsys):
        assert main([
            "federation", "--shards", "2", "--servers-per-shard", "110",
            "--queries", "1500", "--load", "0.4", "--router", "tenant",
            "--spill", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n_shards"] == 2
        assert document["total_servers"] == 220
        assert document["router"] == "tenant"
        summary = document["summary"]
        for key in ("utilization", "deadline_miss_ratio",
                    "spill_ratio", "shard_imbalance", "total_servers"):
            assert key in summary
        assert len(document["shards"]) == 2
        assert sum(row["queries"] for row in document["shards"]) == 1500

    def test_federation_misconfiguration_exits_2(self, capsys):
        # 10 servers per shard cannot host the paper's fanout-100 class.
        assert main([
            "federation", "--shards", "2", "--servers-per-shard", "10",
            "--queries", "500",
        ]) == 2
        assert "error:" in capsys.readouterr().err

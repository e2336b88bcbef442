"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import KNOWN_CONFIGS, KNOWN_REPORTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_workload_and_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom", "--config", "llbp"])

    def test_run_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "kafka", "--config", "magic"])

    def test_report_choices(self):
        args = build_parser().parse_args(["report", "fig12"])
        assert args.name == "fig12"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig99"])

    def test_workloads_csv_parsing(self):
        args = build_parser().parse_args(["report", "fig12", "--workloads", "kafka,nodeapp"])
        assert args.workloads == ["kafka", "nodeapp"]

    def test_workloads_csv_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig12", "--workloads", "kafka,doom"])

    def test_common_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp", "--branches", "500", "--scale", "4"]
        )
        assert args.branches == 500 and args.scale == 4

    def test_backend_option_is_gone(self, capsys):
        # every cell runs as a lane tail over a base stream: nothing to select
        for argv in (
            ["run", "--workload", "kafka", "--config", "llbp", "--backend", "auto"],
            ["submit", "--url", "http://x", "--workload", "kafka", "--config", "llbp",
             "--backend", "auto"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_parallelism_and_cache_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp",
             "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4 and args.cache_dir == "/tmp/c" and args.no_cache

    def test_parallelism_defaults(self):
        args = build_parser().parse_args(["report", "fig12"])
        assert args.jobs == 1 and args.cache_dir is None and not args.no_cache

    def test_artifact_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp",
             "--artifact-dir", "/tmp/a", "--warm-artifacts"]
        )
        assert args.artifact_dir == "/tmp/a" and args.warm_artifacts
        defaults = build_parser().parse_args(["report", "fig12"])
        assert defaults.artifact_dir is None and not defaults.warm_artifacts

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp",
             "--retries", "5", "--cell-timeout", "2.5", "--report", "/tmp/r.json"]
        )
        assert args.retries == 5 and args.cell_timeout == 2.5 and args.report == "/tmp/r.json"
        defaults = build_parser().parse_args(["report", "fig12"])
        assert defaults.retries == 3 and defaults.cell_timeout is None
        assert defaults.report is None  # the figure name lives in args.name

    def test_profile_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp", "--profile", "--profile-top", "10"]
        )
        assert args.profile and args.profile_top == 10
        defaults = build_parser().parse_args(["report", "fig12"])
        assert not defaults.profile and defaults.profile_top == 25

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp",
             "--telemetry", "/tmp/t", "--sample-interval", "5000",
             "--metrics-out", "/tmp/m.json", "--log-level", "info"]
        )
        assert args.telemetry == "/tmp/t" and args.sample_interval == 5000
        assert args.metrics_out == "/tmp/m.json" and args.log_level == "info"
        defaults = build_parser().parse_args(["report", "fig12"])
        assert defaults.telemetry is None and defaults.sample_interval == 0
        assert defaults.metrics_out is None and defaults.log_level == "warning"

    def test_obs_report_flags(self):
        args = build_parser().parse_args(["obs-report", "/tmp/t", "--top", "5"])
        assert args.command == "obs-report"
        assert args.directory == "/tmp/t" and args.top == 5


class TestExecution:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kafka" in out and "llbpx" in out

    def test_run_prints_summaries(self, capsys):
        code = main(
            ["run", "--workload", "kafka", "--config", "tsl_64k", "--config", "llbp",
             "--branches", "8000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MPKI" in out and "vs tsl_64k" in out

    def test_report_table2(self, capsys):
        assert main(["report", "table2"]) == 0
        assert "576 ROB" in capsys.readouterr().out

    def test_report_table1_small(self, capsys):
        code = main(["report", "table1", "--workloads", "kafka", "--branches", "8000"])
        assert code == 0
        assert "kafka" in capsys.readouterr().out

    def test_run_with_profile_reports_hot_functions(self, capsys):
        code = main(
            ["run", "--workload", "kafka", "--config", "tsl_64k",
             "--branches", "5000", "--profile", "--profile-top", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "MPKI" in captured.out
        assert "cumulative" in captured.err  # pstats header went to stderr

    def test_run_parallel_matches_serial_output(self, capsys):
        argv = ["run", "--workload", "kafka", "--workload", "nodeapp",
                "--config", "tsl_64k", "--config", "llbp", "--branches", "5000"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_run_with_cache_dir_reuses_results(self, capsys, tmp_path):
        argv = ["run", "--workload", "kafka", "--config", "tsl_64k",
                "--branches", "5000", "--cache-dir", str(tmp_path), "--log-level", "info"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 hits, 0 misses" in second.err

    def test_run_with_artifact_dir_reuses_bundles(self, capsys, tmp_path):
        argv = ["run", "--workload", "kafka", "--config", "tsl_64k",
                "--branches", "5000", "--artifact-dir", str(tmp_path), "--log-level", "info"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "1 bundle writes" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "(0 bundle builds" in second.err

    def test_run_prints_report_summary_line(self, capsys):
        assert main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000", "--log-level", "info"]) == 0
        err = capsys.readouterr().err
        assert "run report:" in err and "retries=0" in err and "quarantined=0" in err

    def test_default_log_level_keeps_stderr_quiet(self, capsys):
        assert main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000"]) == 0
        captured = capsys.readouterr()
        assert "MPKI" in captured.out
        assert "run report:" not in captured.err  # info lines hidden by default

    def test_run_writes_report_json(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        code = main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000", "--report", str(report_path),
                     "--log-level", "info"])
        assert code == 0
        assert f"run report written to {report_path}" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["version"] == 1
        assert payload["totals"] == {
            "cells": 1, "cached": 0, "simulated": 1, "attempts": 1,
            "retries": 0, "interruptions": 0, "failures": 0,
            "seconds": payload["totals"]["seconds"],
            "batched_groups": 1, "batched_lanes": 1, "base_warm": 0,
        }
        assert payload["simulations"] == 1
        assert payload["cells"][0]["workload"] == "kafka"

    def test_run_recovers_from_injected_crash(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv(
            "REPRO_FAULT_SPEC",
            f"ledger={tmp_path / 'ledger'};crash:kafka/tsl_64k:1",
        )
        code = main(["run", "--workload", "kafka", "--workload", "nodeapp",
                     "--config", "tsl_64k", "--branches", "5000", "--jobs", "2",
                     "--report", str(tmp_path / "r.json"), "--log-level", "info"])
        assert code == 0
        err = capsys.readouterr().err
        assert "pool_rebuilds=" in err
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["totals"]["retries"] >= 1
        assert payload["pool_rebuilds"] >= 1

    def test_run_with_telemetry_and_obs_report(self, capsys, tmp_path):
        import json

        tel_dir = tmp_path / "tel"
        metrics_path = tmp_path / "metrics.json"
        code = main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000", "--telemetry", str(tel_dir),
                     "--sample-interval", "1000", "--metrics-out", str(metrics_path)])
        assert code == 0
        capsys.readouterr()
        # telemetry directory has per-pid event + metrics files
        assert list(tel_dir.glob("events-*.jsonl"))
        assert (tel_dir / "meta.json").exists()
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["runner.simulations"] == 1
        assert metrics["counters"]["runner.branches"] == 5000
        assert "span.simulate.seconds" in metrics["histograms"]
        # sampling gauges were recorded (interval 1000 over 5000 branches)
        assert any(name.startswith("predictor.tsl_64k.") for name in metrics["gauges"])
        # obs-report renders the run with a populated span tree
        assert main(["obs-report", str(tel_dir)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out and "simulate" in out and "cli" in out
        assert "runner.simulations" in out

    def test_obs_report_missing_directory_errors(self, capsys, tmp_path):
        assert main(["obs-report", str(tmp_path / "nope")]) == 1
        assert "telemetry directory not found" in capsys.readouterr().err

    def test_run_no_cache_skips_cache(self, capsys, tmp_path):
        argv = ["run", "--workload", "kafka", "--config", "tsl_64k", "--branches",
                "5000", "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        assert list(tmp_path.glob("*.json")) == []


class TestConstants:
    def test_known_configs_cover_paper_designs(self):
        for required in ("tsl_64k", "tsl_512k", "llbp", "llbpx", "llbpx_optw"):
            assert required in KNOWN_CONFIGS

    def test_known_reports_cover_every_figure(self):
        for required in ("table1", "fig04", "fig05", "fig12", "fig13", "fig15", "fig16"):
            assert required in KNOWN_REPORTS

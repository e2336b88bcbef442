"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import KNOWN_CONFIGS, KNOWN_REPORTS, _report_names, build_parser, main
from repro.core import ResultCache, Runner, RunnerConfig, RunReport
from repro.core.run_report import REPORT_FORMAT_VERSION

SMALL = RunnerConfig(scale=4, num_branches=3000)


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

    def test_report_takes_several_names_and_all(self):
        args = build_parser().parse_args(["report", "fig04", "fig12"])
        assert _report_names(args) == ["fig04", "fig12"]
        assert _report_names(build_parser().parse_args(["report", "all"])) == list(KNOWN_REPORTS)
        assert len(KNOWN_REPORTS) == 16
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig04", "fig99"])

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
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "kafka", "--config", "llbp", "--backend", "auto"]
            )
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_service_verbs_are_gone(self, capsys):
        for verb in ("serve", "submit", "status"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])
            assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_multihost_options_are_gone(self, capsys):
        # one host runs the matrix; there is no claim ledger to join
        commands = (["run", "--workload", "kafka", "--config", "llbp"], ["report", "fig12"])
        options = (["--join"], ["--host-id", "a"], ["--hosts-dir", "h"], ["--claim-batch", "2"])
        for command in commands:
            for option in options:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + option)
                assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

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

    def test_report_flag(self):
        args = build_parser().parse_args(
            ["run", "--workload", "kafka", "--config", "llbp", "--report", "/tmp/r.json"]
        )
        assert args.report == "/tmp/r.json"
        defaults = build_parser().parse_args(["report", "fig12"])
        assert defaults.report is None  # the figure name lives in args.name

    def test_retry_options_are_gone(self, capsys):
        # a crashed run resumes from the result cache; nothing is retried
        for name, value in (("retries", "3"), ("cell-timeout", "5")):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "--workload", "kafka", "--config", "llbp", f"--{name}", value]
                )
            assert f"unrecognized arguments: --{name}" in capsys.readouterr().err

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

    def test_report_several_names_joins_single_outputs(self, capsys):
        argv = ["--workloads", "kafka", "--branches", "2000"]
        singles = []
        for name in ("fig04", "fig12"):
            assert main(["report", name] + argv) == 0
            singles.append(capsys.readouterr().out)
        assert main(["report", "fig04", "fig12"] + argv) == 0
        assert capsys.readouterr().out == singles[0] + "\n" + singles[1]

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

    def test_cache_dir_holds_only_results_and_ledger(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["run", "--workload", "kafka", "--config", "tsl_64k", "--config", "llbp",
                "--branches", "5000", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0  # cold
        assert main(argv) == 0  # fully cached
        names = sorted(path.name for path in cache_dir.iterdir())
        assert len(names) == 3 and names[0] == ".ledger"
        assert all(name.endswith(".json") for name in names[1:])

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
        assert "run report: cells=1 cached=0 simulated=1" in err and "quarantined=0" in err

    def test_default_log_level_keeps_stderr_quiet(self, capsys):
        assert main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000"]) == 0
        captured = capsys.readouterr()
        assert "MPKI" in captured.out
        assert "run report:" not in captured.err  # info lines hidden by default

    def test_run_writes_report_json(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["run", "--workload", "kafka", "--config", "tsl_64k",
                     "--branches", "5000", "--report", str(report_path),
                     "--log-level", "info"])
        assert code == 0
        assert f"run report written to {report_path}" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["version"] == REPORT_FORMAT_VERSION == 3
        assert payload["totals"] == {
            "cells": 1, "cached": 0, "simulated": 1,
            "seconds": payload["totals"]["seconds"],
            "batched_groups": 1, "batched_lanes": 1, "base_warm": 0,
        }
        assert payload["simulations"] == 1
        assert payload["cells"][0]["workload"] == "kafka"
        assert "cost_model" not in payload and "distributed" not in payload

    def test_run_resumes_after_worker_death(self, capsys, tmp_path, doom_task, monkeypatch):
        argv = ["run", "--workload", "kafka", "--workload", "nodeapp",
                "--config", "tsl_64k", "--config", "llbp", "--branches", "5000"]
        assert main(argv) == 0
        uninterrupted = capsys.readouterr().out

        cache_dir = tmp_path / "cache"
        resumable = argv + ["--jobs", "2", "--cache-dir", str(cache_dir)]
        doom_task("die", "kafka", cache_dir, finished=2)
        assert main(resumable) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro: a worker process died: 2 cells finished, 2 missing; "
            f"rerun with the same --cache-dir ({cache_dir}) to resume"
        ]

        monkeypatch.undo()
        report_path = tmp_path / "rerun.json"
        assert main(resumable + ["--report", str(report_path)]) == 0
        assert capsys.readouterr().out == uninterrupted
        payload = json.loads(report_path.read_text())
        assert payload["simulations"] == 2
        assert (payload["totals"]["cached"], payload["totals"]["simulated"]) == (2, 2)

    def test_worker_death_without_cache_says_nothing_persisted(self, capsys, tmp_path, doom_task):
        doom_task("die", "kafka", tmp_path)
        code = main(["run", "--workload", "kafka", "--workload", "nodeapp",
                     "--config", "tsl_64k", "--branches", "5000", "--jobs", "2"])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "missing" in line and "nothing was persisted" in line

    def test_run_with_telemetry_and_obs_report(self, capsys, tmp_path):
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


class TestRunReport:
    def test_cached_does_not_override_simulated(self):
        report = RunReport()
        report.record_success("kafka", "llbp", None, 1.0)
        report.record_cached("kafka", "llbp")
        assert report.cell("kafka", "llbp").source == "simulated"

    def test_overrides_distinguish_cells(self):
        report = RunReport()
        report.record_success("kafka", "llbp", None, 1.0)
        report.record_success("kafka", "llbp", {"num_contexts": 1024}, 1.0)
        assert len(report.cells()) == 2

    def test_to_dict_is_json_serialisable(self):
        report = RunReport()
        report.record_success("kafka", "llbp", None, 0.5)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["version"] == REPORT_FORMAT_VERSION
        assert data["totals"]["cells"] == 1
        assert data["totals"]["simulated"] == 1
        assert data["quarantined"] == 0
        assert data["interrupted"] is False

    def test_to_dict_with_runner_surfaces_quarantines(self, tmp_path):
        runner = Runner(SMALL, cache=ResultCache(tmp_path / "cache"))
        runner.cache.quarantined = 2
        data = runner.report.to_dict(runner)
        assert data["quarantined"] == 2
        assert data["cache"]["quarantined"] == 2
        assert data["simulations"] == 0

    def test_summary_line_is_grep_friendly(self):
        report = RunReport()
        report.record_success("kafka", "llbp", None, 1.0)
        report.record_cached("nodeapp", "llbp")
        report.cell("whiskey", "llbp")  # requested, never resolved
        line = report.summary()
        assert line.startswith("run report: cells=3 cached=1 simulated=1 ")

    def test_summary_with_runner_includes_quarantined(self, tmp_path):
        runner = Runner(SMALL, cache=ResultCache(tmp_path / "cache"))
        assert "quarantined=0" in runner.report.summary(runner)


class TestConstants:
    def test_known_configs_cover_paper_designs(self):
        for required in ("tsl_64k", "tsl_512k", "llbp", "llbpx", "llbpx_optw"):
            assert required in KNOWN_CONFIGS

    def test_known_reports_cover_every_figure(self):
        for required in ("table1", "fig04", "fig05", "fig12", "fig13", "fig15", "fig16"):
            assert required in KNOWN_REPORTS

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``        -- simulate one or more predictor configurations on workloads
* ``report``     -- regenerate paper tables/figures (several names, or ``all``)
* ``obs-report`` -- render a merged telemetry run (spans, metrics, groups)
* ``obs-compact`` -- roll dead processes' telemetry files into merged segments
* ``history``    -- inspect the run-history ledger (list/show/diff/regressions)
* ``list``       -- show known workloads and predictor configurations

Examples::

    python -m repro run --workload nodeapp --config tsl_64k --config llbpx
    python -m repro report fig12 --workloads kafka,nodeapp
    python -m repro report fig12 --jobs 4 --cache-dir ~/.cache/repro
    python -m repro report all --jobs 2
    python -m repro run --workload kafka --config llbp --telemetry .telemetry \
        --sample-interval 20000 --metrics-out metrics.json
    python -m repro obs-report .telemetry
    python -m repro list

``--jobs N`` fans uncached simulations out over N worker processes, one
task per shared-base group, heaviest first (bit-identical results);
``--cache-dir`` persists every result so repeat invocations -- and other
figures sharing cells -- skip simulation.  ``--artifact-dir`` persists trace artifacts so
warm bundles memory-map from disk instead of regenerating (parallel
workers share the store) and shared-base streams replay tail-only
instead of re-simulating the base; ``--warm-artifacts`` pre-builds every
workload's bundle and the requested configs' base streams up front.
``--profile`` wraps the whole command in :mod:`cProfile` and prints the
top functions by cumulative time to stderr (``--profile-top`` controls
how many) -- the standard first step when chasing a hot-path regression.

Crash safety: every cell is a pure function of its key and lands in the
result cache as soon as it finishes, so a run that dies resumes by
rerunning it with the same ``--cache-dir`` -- only the missing cells are
simulated, and the output is byte-identical.  Nothing is retried: if a
worker process dies, ``run``/``report`` exit 1 with one stderr line
giving the finished and missing cell counts.  Every run emits a one-line
``run report: cells=N cached=N simulated=N ... quarantined=N`` summary;
``--report PATH`` writes the full per-cell report (source, timings,
cache/artifact health) as JSON.

Observability: diagnostics flow through the ``repro`` logger
(``--log-level``, default ``warning`` -- pass ``info`` to see progress,
cache stats, and the run summary).  ``--telemetry DIR`` records spans,
metrics, and events into per-process files under DIR (workers
included; ``--sample-interval N`` additionally samples predictor
internals every N branches).  ``--metrics-out PATH`` writes the merged
metrics snapshot as JSON; ``obs-report DIR`` renders a recorded run.

Run history: every cached run (``--cache-dir``) appends one record to
the ledger at ``<cache-dir>/.ledger`` -- digests, timings, throughput,
the full run report, and a merged metrics snapshot -- and a regression
watchdog compares it against a rolling per-(matrix, backend, host)
baseline, flagging throughput and cache-hit-rate regressions and any
result-digest change (a correctness alarm).  ``repro history list``
shows the records, ``show`` dumps one, ``diff`` compares two, and
``regressions`` lists flagged runs (exit 1 if any).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List

from repro import obs
from repro.core import (
    ArtifactStore,
    ResultCache,
    Runner,
    RunnerConfig,
    reduction,
)
from repro.traces.workloads import WORKLOAD_NAMES

logger = obs.get_logger("cli")

KNOWN_CONFIGS = (
    "tsl_8k", "tsl_16k", "tsl_32k", "tsl_64k", "tsl_128k", "tsl_256k", "tsl_512k",
    "tsl_inf", "llbp", "llbp_0lat", "llbpx", "llbpx_0lat", "llbpx_optw",
)

KNOWN_REPORTS = (
    "table1", "table2", "fig01", "fig04", "fig05", "fig06", "fig08", "fig09",
    "fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16", "sec7e", "sec7f",
)


def _make_runner(args: argparse.Namespace) -> Runner:
    if getattr(args, "jobs", None) == 0:
        from repro.core.parallel import effective_jobs

        args.jobs = effective_jobs(0)
        logger.info("jobs: auto-selected %d (one per core)", args.jobs)
    cache = None
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache", False):
        cache = ResultCache(args.cache_dir)
    artifacts = None
    if getattr(args, "artifact_dir", None):
        artifacts = ArtifactStore(args.artifact_dir)
    runner = Runner(
        RunnerConfig(scale=args.scale, num_branches=args.branches),
        cache=cache,
        artifacts=artifacts,
    )
    if artifacts is not None and getattr(args, "warm_artifacts", False):
        built = artifacts.warm(WORKLOAD_NAMES, runner.config)
        logger.info(
            "artifacts: warmed %d workloads (%d built, %d already present)",
            len(WORKLOAD_NAMES),
            built,
            len(WORKLOAD_NAMES) - built,
        )
        from repro.core.batched import base_config

        bases = []
        for name in getattr(args, "config", None) or ["tsl_64k"]:
            base = base_config(name, runner.config.scale)
            if base is not None and base not in bases:
                bases.append(base)
        base_built, base_skipped = artifacts.warm_bases(WORKLOAD_NAMES, runner.config, bases)
        logger.info(
            "artifacts: warmed base streams for %d base configs (%d built, %d skipped)",
            len(bases),
            base_built,
            base_skipped,
        )
    if runner.ledger is not None:
        runner.ledger_context["source"] = "cli"
    return runner


def _progress_printer(total: int):
    """Per-cell progress callback (needed once cells complete out of order)."""
    done = [0]

    def progress(workload: str, config: str, result) -> None:
        done[0] += 1
        logger.info("[%3d/%d] %s/%s  MPKI %.3f", done[0], total, workload, config, result.mpki)

    return progress


def _print_cache_stats(runner: Runner) -> None:
    if runner.cache is not None:
        stats = runner.cache.stats()
        logger.info(
            "cache: %d hits, %d misses, %d writes (%d simulations)",
            stats["hits"],
            stats["misses"],
            stats["writes"],
            runner.sim_count,
        )
    if runner.artifacts is not None:
        stats = runner.artifacts.stats()
        logger.info(
            "artifacts: %d bundle loads, %d bundle writes (%d bundle builds in this process)",
            stats["bundle_loads"],
            stats["bundle_writes"],
            runner.bundle_builds,
        )
        logger.info(
            "base streams: %d recorded, %d loaded",
            stats["base_writes"],
            stats["base_loads"],
        )


def _publish_run_gauges(runner: Runner) -> None:
    """Mirror the run report's totals into metrics-registry gauges."""
    registry = obs.registry()
    totals = runner.report.totals()
    for key in ("cells", "cached", "simulated", "seconds", "batched_groups", "batched_lanes", "base_warm"):
        registry.gauge("run.%s" % key).set(float(totals[key]))


def _write_metrics(path: str) -> None:
    """Write the merged (all processes) metrics snapshot as JSON."""
    session = obs.current()
    if session is not None:
        obs.flush()
        merged = obs.merged_metrics(session.directory)
    else:
        merged = obs.merge_snapshots([obs.registry().snapshot()])
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    logger.info("metrics written to %s", path)


def _finish_run(args: argparse.Namespace, runner: Runner) -> None:
    """End-of-run reporting: summary line, cache stats, ``--report`` JSON,
    run gauges + ``--metrics-out`` snapshot, run-end telemetry event."""
    logger.info("%s", runner.report.summary(runner))
    _print_cache_stats(runner)
    _publish_run_gauges(runner)
    report_path = getattr(args, "report", None)
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(runner.report.to_dict(runner), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("run report written to %s", report_path)
    obs.emit_event("run-end", totals=runner.report.to_dict()["totals"])
    # harnesses driving run_cells directly (the `report` figures) never
    # hit run_matrix's automatic ledger append; record the whole session
    # as one history entry instead (no-op if something appended already)
    runner.ledger_append_session(
        max(0.0, time.time() - runner.report.started_at),
        time.process_time(),
        context={"command": getattr(args, "command", "") or ""},
    )
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path:
        _write_metrics(metrics_path)


def _worker_died(runner: Runner) -> int:
    """Report a run whose pool lost a worker: one stderr line, status 1.

    Every result that finished before the death is already in the memo
    and, with ``--cache-dir``, on disk; the report's unresolved cells
    are the ones a rerun still has to simulate.
    """
    totals = runner.report.totals()
    finished = int(totals["cached"]) + int(totals["simulated"])
    missing = int(totals["cells"]) - finished
    if runner.cache is not None:
        hint = f"rerun with the same --cache-dir ({runner.cache.cache_dir}) to resume"
    else:
        hint = "nothing was persisted (no result cache), so a rerun starts over"
    print(
        f"repro: a worker process died: {finished} cells finished, {missing} missing; {hint}",
        file=sys.stderr,
    )
    return 1


def _workload_list(value: str) -> List[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        if name not in WORKLOAD_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}"
            )
    return names


def cmd_obs_report(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"telemetry directory not found: {directory}", file=sys.stderr)
        return 1
    print(obs.render_report(directory, top=args.top))
    return 0


def cmd_obs_compact(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"telemetry directory not found: {directory}", file=sys.stderr)
        return 1
    stats = obs.compact_events(directory)
    print(
        "compacted %d event file(s) (%d events) and %d metrics file(s) into merged segments"
        % (stats["event_files"], stats["events"], stats["metrics_files"])
    )
    return 0


def _ledger_dir(args: argparse.Namespace) -> Path:
    from repro.obs.ledger import LEDGER_DIRNAME

    if getattr(args, "ledger", None):
        return Path(args.ledger)
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir) / LEDGER_DIRNAME
    print("history requires --ledger DIR or --cache-dir DIR", file=sys.stderr)
    raise SystemExit(2)


def _history_line(record: dict) -> str:
    ts = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(record.get("ts", 0.0))))
    flags = record.get("regressions") or []
    flag_note = "  !! " + ",".join(str(f.get("kind")) for f in flags) if flags else ""
    return (
        "%s  %s  %-7s %-9s %3d cells  hit %3d%%  %10.0f bps  %s/%s%s"
        % (
            record.get("run_id", "?"),
            ts,
            str(record.get("source", "?")),
            str(record.get("backend", "?")),
            int(record.get("cells", 0)),
            round(100.0 * float(record.get("cache_hit_rate", 0.0))),
            float(record.get("branches_per_sec", 0.0)),
            record.get("matrix_digest", "?"),
            record.get("result_digest", "?"),
            flag_note,
        )
    )


def _history_diff(old: dict, new: dict) -> List[str]:
    """Field-by-field comparison lines of two ledger records."""
    lines = [
        "diff %s (%s) -> %s (%s)"
        % (
            old.get("run_id", "?"),
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(old.get("ts", 0.0)))),
            new.get("run_id", "?"),
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(new.get("ts", 0.0)))),
        )
    ]
    fields = (
        "source", "backend", "workloads", "configs", "cells", "branches", "scale",
        "matrix_digest", "result_digest", "cache_hit_rate",
        "wall_seconds", "cpu_seconds", "branches_per_sec",
    )
    for field in fields:
        before, after = old.get(field), new.get(field)
        marker = " " if before == after else "*"
        lines.append(f"  {marker} {field:<17} {before!r:>24} -> {after!r}")
    if old.get("matrix_digest") == new.get("matrix_digest"):
        if old.get("result_digest") != new.get("result_digest"):
            lines.append(
                "  !! result digest changed on an identical matrix -- results are "
                "no longer bit-identical (correctness alarm)"
            )
        else:
            lines.append("  == identical matrix, identical results")
    else:
        lines.append("  (different matrices -- digest comparison not meaningful)")
    return lines


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger
    from repro.obs.regress import flagged_records

    ledger = RunLedger(_ledger_dir(args))
    records = ledger.records()
    action = args.action

    if action == "list":
        shown = records[-args.limit:] if args.limit else records
        if args.json:
            print(json.dumps(shown, indent=2, sort_keys=True))
            return 0
        if not shown:
            print("ledger is empty")
            return 0
        for record in shown:
            print(_history_line(record))
        if args.trend:
            print()
            print(obs.render_trend(shown))
        return 0

    if action == "show":
        try:
            record = ledger.get(args.run_id)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0

    if action == "diff":
        try:
            if args.run_id and args.run_id_b:
                old, new = ledger.get(args.run_id), ledger.get(args.run_id_b)
            elif args.run_id:
                if not records:
                    print("ledger is empty", file=sys.stderr)
                    return 1
                old, new = ledger.get(args.run_id), records[-1]
            else:
                if len(records) < 2:
                    print("history diff needs two records (ledger has fewer)", file=sys.stderr)
                    return 1
                old, new = records[-2], records[-1]
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps({"old": old, "new": new}, indent=2, sort_keys=True))
        else:
            print("\n".join(_history_diff(old, new)))
        return 0

    if action == "regressions":
        flagged = flagged_records(records)
        shown = flagged[-args.limit:] if args.limit else flagged
        if args.json:
            print(json.dumps(shown, indent=2, sort_keys=True))
        elif not shown:
            print("no flagged runs (%d records checked)" % len(records))
        else:
            for record in shown:
                print(_history_line(record))
                for flag in record.get("regressions") or []:
                    print(
                        "      [%s/%s] %s"
                        % (flag.get("severity"), flag.get("kind"), flag.get("detail"))
                    )
        return 1 if flagged else 0

    raise SystemExit(f"unknown history action {action!r}")  # pragma: no cover


def cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for name in WORKLOAD_NAMES:
        print(f"  {name}")
    print("\npredictor configurations:")
    for name in KNOWN_CONFIGS:
        print(f"  {name}")
    print("\nreports:")
    print("  " + ", ".join(KNOWN_REPORTS))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    progress = None
    if args.jobs > 1:
        progress = _progress_printer(len(args.workload) * len(args.config))
    try:
        matrix = runner.run_matrix(args.workload, args.config, progress=progress, jobs=args.jobs)
    except BrokenProcessPool:
        return _worker_died(runner)
    # one line per cell; each workload's first config is its baseline
    for workload in args.workload:
        baseline = None
        for config in args.config:
            result = matrix[workload][config]
            line = result.summary()
            if baseline is None:
                baseline = result
            else:
                line += f"  ({reduction(baseline, result):+5.1f}% vs {baseline.predictor})"
            print(line)
        runner.release(workload)
    _finish_run(args, runner)
    return 0


def _render_report(runner: Runner, name: str, workloads, jobs: int) -> str:
    """Run one paper table/figure harness and format its text."""
    from repro import experiments as ex

    single = (workloads or ["nodeapp"])[0]
    if name == "table1":
        return ex.format_table1(ex.run_table1(runner, workloads, jobs=jobs))
    if name == "table2":
        return ex.format_table2()
    if name == "fig01":
        return ex.format_fig01(ex.run_fig01(runner, workloads, jobs=jobs))
    if name == "fig04":
        return ex.format_fig04(ex.run_fig04(runner, workloads, jobs=jobs))
    if name == "fig05":
        return ex.format_fig05(ex.run_fig05(runner, workloads, jobs=jobs))
    if name == "fig06":
        return ex.format_fig06_07(ex.run_fig06_07(runner, single))
    if name == "fig08":
        return ex.format_fig08(ex.run_fig08(runner, single))
    if name == "fig09":
        return ex.format_fig09(ex.run_fig09(runner, single))
    if name == "fig12":
        return ex.format_fig12(ex.run_fig12(runner, workloads, jobs=jobs))
    if name == "fig13":
        return ex.format_fig13(ex.run_fig13(runner, workloads, jobs=jobs))
    if name == "fig14a":
        return ex.format_fig14a(ex.run_fig14a(runner, workloads, jobs=jobs))
    if name == "fig14b":
        return ex.format_fig14b(ex.run_fig14b(runner, workloads, jobs=jobs))
    if name == "fig15":
        return ex.format_fig15(ex.run_fig15(runner, workloads, jobs=jobs))
    if name == "fig16":
        return ex.format_fig16(
            ex.run_fig16a(runner, workloads, jobs=jobs),
            ex.run_fig16b(runner, workloads, jobs=jobs),
        )
    if name == "sec7e":
        return ex.format_breakdown(ex.run_breakdown(runner, workloads, jobs=jobs))
    if name == "sec7f":
        return ex.format_sensitivity(
            ex.run_hth_sweep(runner, workloads, jobs=jobs),
            ex.run_ctt_sweep(runner, workloads, jobs=jobs),
        )
    raise SystemExit(f"unknown report {name!r}")  # pragma: no cover - argparse choices guard this


def _report_name(value: str) -> str:
    if value != "all" and value not in KNOWN_REPORTS:
        raise argparse.ArgumentTypeError(
            f"unknown report {value!r}; known: {', '.join(KNOWN_REPORTS)}, all"
        )
    return value


def _report_names(args: argparse.Namespace) -> List[str]:
    """The reports ``repro report NAME...`` renders, ``all`` expanded in CLI order."""
    names = [args.name] + list(args.more)
    return [report for name in names for report in (KNOWN_REPORTS if name == "all" else (name,))]


def cmd_report(args: argparse.Namespace) -> int:
    """Render each named report on one runner, a blank line between reports.

    The runner's memo carries every trace and base stream from one
    report to the next, so shared baselines are generated and recorded
    once per invocation.
    """
    runner = _make_runner(args)
    try:
        for index, name in enumerate(_report_names(args)):
            text = _render_report(runner, name, args.workloads, args.jobs)
            if index:
                print()
            print(text)
    except BrokenProcessPool:
        return _worker_died(runner)
    _finish_run(args, runner)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--branches", type=int, default=120_000, help="trace length per workload")
    common.add_argument("--scale", type=int, default=8, help="capacity scale (DESIGN.md §1)")
    common.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiment matrices (1 = serial, 0 = one per "
        "core; requests beyond the machine's cores are clamped; results are "
        "bit-identical)",
    )
    common.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory; repeat invocations skip finished simulations",
    )
    common.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (force re-simulation, do not read or write cached results)",
    )
    common.add_argument(
        "--artifact-dir", default=None,
        help="persistent trace-artifact store; warm bundles load memory-mapped "
        "instead of regenerating traces (shared by parallel workers)",
    )
    common.add_argument(
        "--warm-artifacts", action="store_true",
        help="with --artifact-dir: pre-build the bundle of every known workload "
        "and pre-record the base streams of the requested configs before "
        "running, so the run itself performs zero trace generations and "
        "zero shared-base passes",
    )
    common.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the structured run report (per-cell source and timings, "
        "cache and artifact health) as JSON to PATH",
    )
    common.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions (by cumulative time) to stderr",
    )
    common.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="number of functions the --profile report shows (default: 25)",
    )
    common.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record spans, metrics, and events into per-process files "
        "under DIR (parallel workers included); render with `repro obs-report DIR`",
    )
    common.add_argument(
        "--sample-interval", type=int, default=0, metavar="N",
        help="with --telemetry: sample predictor internals (occupancy, useful-bit "
        "saturation, PB hit rate) every N branches (default: 0 = off, zero hot-path cost)",
    )
    common.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the merged end-of-run metrics snapshot (counters, gauges, "
        "histograms from every process) as JSON to PATH",
    )
    common.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help="verbosity of the repro logger on stderr (default: warning; "
        "info shows progress, cache stats, and the run summary)",
    )

    p_list = sub.add_parser("list", help="show workloads, configs, reports")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", parents=[common], help="simulate configurations")
    p_run.add_argument("--workload", action="append", required=True, choices=WORKLOAD_NAMES)
    p_run.add_argument("--config", action="append", required=True, choices=KNOWN_CONFIGS)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser(
        "report", parents=[common], help="regenerate paper tables/figures on one runner"
    )
    p_report.add_argument(
        "name",
        choices=KNOWN_REPORTS + ("all",),
        metavar="NAME",
        help="a report (%s), or all of them" % ", ".join(KNOWN_REPORTS),
    )
    # validated by type=, not choices=: argparse checks an empty "*"
    # positional's [] against choices and rejects it
    p_report.add_argument(
        "more",
        nargs="*",
        type=_report_name,
        metavar="NAME",
        help="further reports, rendered in order on the same runner",
    )
    p_report.add_argument(
        "--workloads",
        type=_workload_list,
        default=None,
        help="comma-separated workload subset (default: the figure's own set)",
    )
    p_report.set_defaults(func=cmd_report)

    p_obs = sub.add_parser(
        "obs-report", help="render a recorded telemetry run (spans, metrics, groups)"
    )
    p_obs.add_argument("directory", help="telemetry directory written by --telemetry")
    p_obs.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="number of counters/gauges shown per section (default: 12)",
    )
    p_obs.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help=argparse.SUPPRESS,
    )
    p_obs.set_defaults(func=cmd_obs_report)

    p_compact = sub.add_parser(
        "obs-compact",
        help="merge telemetry files left behind by dead processes into rolled segments",
    )
    p_compact.add_argument("directory", help="telemetry/events directory to compact")
    p_compact.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help=argparse.SUPPRESS,
    )
    p_compact.set_defaults(func=cmd_obs_compact)

    p_history = sub.add_parser(
        "history", help="inspect the run-history ledger (list/show/diff/regressions)"
    )
    p_history.add_argument(
        "action", choices=("list", "show", "diff", "regressions"),
        help="list records, show one, diff two, or list regression-flagged runs",
    )
    p_history.add_argument(
        "run_id", nargs="?", default=None,
        help="run id (unique prefix accepted) for show/diff",
    )
    p_history.add_argument(
        "run_id_b", nargs="?", default=None,
        help="second run id for diff (default: the latest record)",
    )
    p_history.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger directory (default: <--cache-dir>/.ledger)",
    )
    p_history.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory whose .ledger subdirectory holds the history",
    )
    p_history.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="show only the newest N records (default: 0 = all)",
    )
    p_history.add_argument(
        "--trend", action="store_true",
        help="with list: append a per-(matrix, backend, host) throughput trend summary",
    )
    p_history.add_argument("--json", action="store_true", help="emit raw JSON records")
    p_history.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help=argparse.SUPPRESS,
    )
    p_history.set_defaults(func=cmd_history)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # rebind the stderr handler every invocation: pytest's capsys swaps
    # sys.stderr between tests, and a cached stream would miss capture
    obs.configure_logging(getattr(args, "log_level", "warning"))
    if getattr(args, "telemetry", None):
        obs.configure(args.telemetry, sample_interval=getattr(args, "sample_interval", 0))
    try:
        with obs.span("cli", command=args.command):
            if getattr(args, "profile", False):
                import cProfile
                import pstats

                profiler = cProfile.Profile()
                status = profiler.runcall(args.func, args)
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(args.profile_top)
            else:
                status = args.func(args)
        return status
    finally:
        obs.shutdown()


if __name__ == "__main__":
    sys.exit(main())

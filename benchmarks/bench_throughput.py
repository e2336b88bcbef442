"""Throughput benchmark: simulation rate and matrix wall-clock vs ``--jobs``.

Measures the experiment execution layer itself (not a paper figure):

* branches simulated per second and end-to-end matrix wall-clock for a
  (workloads x configs) matrix at each ``--jobs`` level,
* the persistent result cache: cold-run vs warm-run wall-clock, with the
  warm run asserted to perform zero simulations, and
* the persistent trace-artifact store: artifact-cold vs warm-artifact
  wall-clock with a *cold result cache* (every cell still simulates; only
  bundle construction is skipped), with the warm run asserted to perform
  zero trace generations.  Each run reports its phase breakdown -- bundle
  build vs artifact load vs simulate seconds, and
* shared bases: the full matrix and a Fig-16-style capacity sweep timed
  with one base per cell (``run_one`` per cell) vs shared-base groups
  (one ``run_cells`` call), results asserted bit-identical before the
  timings count,
* persistent base streams: cold-base vs warm-base passes over one
  artifact store with a cold result cache (every cell simulates; the
  warm pass records zero streams and replays tail-only), on both
  capacity-sweep shapes -- one shared base and distinct-base
  singletons, and
* distributed execution: 1-host vs 2-host cooperative drains of one
  cold shared store (ledger claims; zero duplicate simulations and
  bit-identity asserted), plus the learned cost model's held-out MAPE
  vs the static heuristic on the timing corpus the run persisted.

Results go to ``BENCH_throughput.json`` (repo root by default), seeding
the repo's performance trajectory -- future perf PRs re-run this and
compare.  Parallel speedup is bounded by physical cores (recorded as
``cpu_count`` in the payload); the cache speedup is hardware-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --branches 60000 --jobs 1,2,4,8 --workloads kafka,nodeapp,tomcat,wikipedia
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import multiprocessing

from repro import obs
from repro.core import (
    ArtifactStore,
    CoopScheduler,
    HostLedger,
    ResultCache,
    Runner,
    RunnerConfig,
    TimingStore,
    evaluate_cost_model,
)
from repro.core.results_io import TIMINGS_FILENAME
from repro.traces.workloads import clear_trace_cache

DEFAULT_WORKLOADS = "kafka,nodeapp,tomcat,wikipedia"
DEFAULT_CONFIGS = "tsl_64k,llbp,llbpx"


def _store_health_gauges(prefix, stats, hits, attempts):
    """Mirror a store's health counters (plus a derived hit rate) into
    gauges, so the benchmark's metrics.json carries them."""
    reg = obs.registry()
    for key, value in stats.items():
        reg.gauge("%s.%s" % (prefix, key)).set(float(value))
    reg.gauge("%s.hit_rate" % prefix).set(hits / attempts if attempts else 0.0)


def _timed_matrix(config, workloads, configs, jobs, cache=None, artifacts=None):
    """One cold matrix run; returns (seconds, runner, result table)."""
    clear_trace_cache()  # charge trace generation to every run equally
    runner = Runner(config, cache=cache, artifacts=artifacts)
    start = time.perf_counter()
    table = runner.run_matrix(workloads, configs, jobs=jobs)
    return time.perf_counter() - start, runner, table


def _phases(runner):
    """Parent-process phase breakdown of one run (jobs=1 runs only --
    parallel runs spend these phases inside workers)."""
    return {
        "bundle_build_seconds": round(runner.bundle_build_seconds, 3),
        "artifact_load_seconds": round(runner.artifact_load_seconds, 3),
        "sim_seconds": round(runner.sim_seconds, 3),
    }


def bench_jobs_sweep(config, workloads, configs, jobs_levels):
    branches_total = config.num_branches * len(workloads) * len(configs)
    runs = []
    serial_seconds = None
    mpki = None
    for jobs in jobs_levels:
        seconds, runner, table = _timed_matrix(config, workloads, configs, jobs)
        if serial_seconds is None:
            serial_seconds = seconds
            # deterministic result identity for the ledger's digest alarm
            mpki = {f"{w}/{c}": table[w][c].mpki for w in workloads for c in configs}
        row = {
            "jobs": jobs,
            "seconds": round(seconds, 3),
            "branches_per_second": round(branches_total / seconds),
            "speedup_vs_jobs1": round(serial_seconds / seconds, 3),
        }
        if jobs == 1:
            row["phases"] = _phases(runner)
        runs.append(row)
        print(
            f"jobs={jobs}: {seconds:7.2f}s  "
            f"{branches_total / seconds / 1e3:8.1f} kbranch/s  "
            f"speedup x{serial_seconds / seconds:.2f}"
        )
    return runs, mpki


def bench_cache(config, workloads, configs):
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_seconds, cold_runner, _ = _timed_matrix(
            config, workloads, configs, jobs=1, cache=ResultCache(cache_dir)
        )
        warm_seconds, warm_runner, _ = _timed_matrix(
            config, workloads, configs, jobs=1, cache=ResultCache(cache_dir)
        )
        assert warm_runner.sim_count == 0, "warm cache must perform zero simulations"
        cache_stats = {
            key: cold + warm
            for (key, cold), warm in zip(
                cold_runner.cache.stats().items(), warm_runner.cache.stats().values()
            )
        }
        _store_health_gauges(
            "bench.result_cache",
            cache_stats,
            hits=cache_stats["hits"],
            attempts=cache_stats["hits"] + cache_stats["misses"],
        )
        print(
            f"cache: cold {cold_seconds:.2f}s -> warm {warm_seconds:.3f}s "
            f"(x{cold_seconds / warm_seconds:.0f}, {warm_runner.cache.hits} hits, "
            f"0 simulations)"
        )
        return {
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "speedup": round(cold_seconds / warm_seconds, 1),
            "cold_simulations": cold_runner.sim_count,
            "warm_simulations": warm_runner.sim_count,
            "warm_cache_hits": warm_runner.cache.hits,
        }


def bench_artifacts(config, workloads, configs):
    """Artifact-cold vs warm-artifact matrix, both with a cold result cache.

    Every cell simulates in both runs; the warm run resolves all bundles
    from the store (zero trace generations, counter-asserted) so the delta
    is the bundle-construction work the store amortises away.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-artifacts-") as artifact_dir:
        cold_seconds, cold_runner, _ = _timed_matrix(
            config, workloads, configs, jobs=1, artifacts=ArtifactStore(artifact_dir)
        )
        warm_seconds, warm_runner, _ = _timed_matrix(
            config, workloads, configs, jobs=1, artifacts=ArtifactStore(artifact_dir)
        )
        assert warm_runner.bundle_builds == 0, "warm store must perform zero bundle builds"
        assert warm_runner.bundle_loads == len(workloads)
        store_stats = {
            key: cold + warm
            for (key, cold), warm in zip(
                cold_runner.artifacts.stats().items(), warm_runner.artifacts.stats().values()
            )
        }
        _store_health_gauges(
            "bench.artifact_store",
            store_stats,
            hits=store_stats["bundle_loads"],
            attempts=store_stats["bundle_loads"] + store_stats["bundle_writes"],
        )
        improvement = 100.0 * (1.0 - warm_seconds / cold_seconds)
        print(
            f"artifacts: cold {cold_seconds:.2f}s -> warm {warm_seconds:.2f}s "
            f"({improvement:+.1f}% wall-clock, 0 bundle builds, "
            f"{warm_runner.bundle_loads} mmap loads)"
        )
        return {
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "improvement_percent": round(improvement, 1),
            "cold_phases": _phases(cold_runner),
            "warm_phases": _phases(warm_runner),
            "cold_bundle_builds": cold_runner.bundle_builds,
            "warm_bundle_builds": warm_runner.bundle_builds,
            "warm_bundle_loads": warm_runner.bundle_loads,
        }


def _timed_run(config, run):
    """One cold, serial run of ``run(runner)``; returns (seconds, results)."""
    clear_trace_cache()
    runner = Runner(config)
    start = time.perf_counter()
    results = run(runner)
    return time.perf_counter() - start, results


def _one_base_per_cell(cells):
    return lambda runner: [runner.run_one(w, n, **o) for w, n, o in cells]


def bench_backends(config, workloads, configs):
    """One base per cell vs shared-base groups, bit-identity asserted.

    Two shapes: the benchmark matrix itself (each workload's config
    column shares one base), and the Fig-16-style capacity sweep --
    ``tsl_64k`` plus six ``llbpx_0lat`` lanes over one bundle -- that
    shared bases were built for.
    """
    section = {}
    matrix_cells = [(w, c, {}) for w in workloads for c in configs]
    sweep_cells = [(workloads[0], "tsl_64k", {})] + [
        (workloads[0], "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64})
        for contexts in (1024, 2048, 4096, 8192, 14336, 32768)
    ]
    for shape, cells in (("matrix", matrix_cells), ("capacity_sweep", sweep_cells)):
        seconds = {}
        results = {}
        seconds["one_base_per_cell"], results["one_base_per_cell"] = _timed_run(
            config, _one_base_per_cell(cells)
        )
        seconds["shared_base"], results["shared_base"] = _timed_run(
            config, lambda runner: runner.run_cells(cells)
        )
        assert results["one_base_per_cell"] == results["shared_base"], (
            f"{shape}: shared-base groups diverged from one base per cell"
        )
        speedup = seconds["one_base_per_cell"] / seconds["shared_base"]
        lanes = len(sweep_cells) if shape == "capacity_sweep" else len(configs)
        section[shape] = {
            "lanes_per_group": lanes,
            "one_base_per_cell_seconds": round(seconds["one_base_per_cell"], 3),
            "shared_base_seconds": round(seconds["shared_base"], 3),
            "speedup": round(speedup, 3),
        }
        print(
            f"backends/{shape}: one base per cell {seconds['one_base_per_cell']:.2f}s -> "
            f"shared base {seconds['shared_base']:.2f}s (x{speedup:.2f}, bit-identical)"
        )
    return section


def bench_base_streams(config, workloads, configs):
    """Cold-base vs warm-base execution, bit-identity asserted.

    Both sweep shapes from ``bench_hotpath.py``: seven lanes sharing one
    base (``llbpx`` flavor -- the recording amortises over the group, so
    warm mostly saves the one record pass) and seven distinct-base TSL
    presets (``tsl`` flavor -- cold records one stream per lone cell,
    warm replays each tail-only; this is the shape the persistent store
    exists for).  The result cache is cold in every pass: the delta is
    pure base-stream work.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_hotpath import TSL_SWEEP_PRESETS

    section = {}
    shared_cells = [(workloads[0], "tsl_64k", {})] + [
        (workloads[0], "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64})
        for contexts in (1024, 2048, 4096, 8192, 14336, 32768)
    ]
    distinct_cells = [(workloads[0], name, {}) for name in TSL_SWEEP_PRESETS]
    for shape, cells in (("shared_base", shared_cells), ("distinct_bases", distinct_cells)):
        seconds = {}
        results = {}
        with tempfile.TemporaryDirectory(prefix="repro-bench-base-") as artifact_dir:
            for mode in ("cold", "warm"):
                clear_trace_cache()
                store = ArtifactStore(artifact_dir)
                runner = Runner(config, artifacts=store)
                runner.bundle(workloads[0])  # untimed, same for both modes
                start = time.perf_counter()
                results[mode] = runner.run_cells(cells, release_bundles=False)
                seconds[mode] = time.perf_counter() - start
                if mode == "warm":
                    assert store.base_writes == 0, "warm pass re-recorded a stream"
                    assert store.base_loads >= 1, "warm pass loaded nothing"
        assert results["cold"] == results["warm"], (
            f"{shape}: warm-base replay diverged from cold-base execution"
        )
        speedup = seconds["cold"] / seconds["warm"]
        section[shape] = {
            "lanes": len(cells),
            "cold_seconds": round(seconds["cold"], 3),
            "warm_seconds": round(seconds["warm"], 3),
            "warm_speedup": round(speedup, 3),
        }
        print(
            f"base_streams/{shape}: cold {seconds['cold']:.2f}s -> "
            f"warm {seconds['warm']:.2f}s (x{speedup:.2f}, bit-identical)"
        )
    return section


def _coop_bench_host(config, cache_dir, host_id, workloads, configs, queue):
    """One cooperating host process: join the shared store, drain, report."""
    clear_trace_cache()
    runner = Runner(config, cache=ResultCache(cache_dir))
    runner.coop = CoopScheduler(
        HostLedger(Path(cache_dir) / ".hosts", host_id=host_id), claim_batch=1
    )
    start = time.perf_counter()
    matrix = runner.run_matrix(workloads, configs)
    queue.put(
        {
            "host": host_id,
            "seconds": round(time.perf_counter() - start, 3),
            "simulations": runner.sim_count,
            "claims": runner.report.claims,
            "peer_results": runner.report.peer_results,
            "mpki": {f"{w}/{c}": matrix[w][c].mpki for w in workloads for c in configs},
        }
    )


def bench_distributed(config, workloads, configs):
    """1-host vs 2-host cooperative drains of one cold shared store.

    Each host count gets a fresh store; N processes join it with
    ``CoopScheduler`` and drain the matrix via ledger claims.  Asserted
    before any timing counts: zero duplicate simulations, and results
    bit-identical across host counts.  Afterwards the surviving
    ``TimingStore`` sample corpus scores the learned cost model against
    the static heuristic (held-out MAPE) -- the quality the scheduler's
    longest-predicted-first ordering actually runs on.
    """
    section = {"runs": []}
    total_cells = len(workloads) * len(configs)
    reference_mpki = None
    ctx = multiprocessing.get_context("fork")
    for hosts in (1, 2):
        with tempfile.TemporaryDirectory(prefix="repro-bench-coop-") as cache_dir:
            queue = ctx.Queue()
            procs = [
                ctx.Process(
                    target=_coop_bench_host,
                    args=(config, cache_dir, f"host{i}", workloads, configs, queue),
                )
                for i in range(hosts)
            ]
            start = time.perf_counter()
            for proc in procs:
                proc.start()
            outcomes = [queue.get() for _ in procs]
            for proc in procs:
                proc.join()
            wall = time.perf_counter() - start
            total_sims = sum(o["simulations"] for o in outcomes)
            assert total_sims == total_cells, (
                f"{hosts}-host run duplicated simulations: {total_sims} != {total_cells}"
            )
            tables = [o["mpki"] for o in outcomes]
            assert all(t == tables[0] for t in tables), "hosts disagree on results"
            if reference_mpki is None:
                reference_mpki = tables[0]
            assert tables[0] == reference_mpki, "host count changed results"
            section["runs"].append(
                {
                    "hosts": hosts,
                    "wall_seconds": round(wall, 3),
                    "total_simulations": total_sims,
                    "duplicate_simulations": total_sims - total_cells,
                    "per_host": [
                        {k: o[k] for k in ("host", "seconds", "simulations", "claims", "peer_results")}
                        for o in sorted(outcomes, key=lambda o: o["host"])
                    ],
                }
            )
            print(
                f"distributed/{hosts}-host: {wall:7.2f}s  "
                f"{total_sims} sims ({total_sims - total_cells} duplicated), "
                f"claims {[o['claims'] for o in outcomes]}, bit-identical"
            )
            if hosts == 2:
                # score the cost model on the corpus this run persisted
                stats = evaluate_cost_model(TimingStore(Path(cache_dir) / TIMINGS_FILENAME))
                section["cost_model"] = stats
                if stats is not None:
                    print(
                        f"cost model: learned MAPE {stats['learned_mape_percent']}% vs "
                        f"heuristic {stats['heuristic_mape_percent']}% on "
                        f"{stats['samples']} held-out samples "
                        f"({stats['improvement_percent']:+.1f} pts)"
                    )
    baseline = section["runs"][0]["wall_seconds"]
    for row in section["runs"]:
        row["speedup_vs_1host"] = round(baseline / row["wall_seconds"], 3)
    return section


def append_ledger_record(directory, args, workloads, configs, matrix_runs, mpki, wall_seconds):
    """Append this benchmark run to a run-history ledger (``--ledger``).

    Bench records carry no embedded run report, which the regression
    watchdog treats as a pure throughput measurement; the result digest
    covers only the deterministic serial-run MPKI table, so a digest
    flip really means the simulator's results changed.
    """
    from repro.obs.ledger import RunLedger, matrix_digest, result_digest
    from repro.obs.regress import check_and_update

    identity = [
        "bench-throughput|%s|%s|%d|%d" % (workload, name, args.branches, args.scale)
        for workload in workloads
        for name in configs
    ]
    record = {
        "source": "bench",
        "context": {"benchmark": "throughput", "jobs": args.jobs},
        "workloads": workloads,
        "configs": configs,
        "backend": "bench-throughput",
        "branches": args.branches * len(workloads) * len(configs),
        "scale": args.scale,
        "matrix_digest": matrix_digest(identity),
        "result_digest": result_digest([mpki or {}]),
        "cells": len(identity),
        "cache_hit_rate": 0.0,
        "wall_seconds": round(wall_seconds, 3),
        "cpu_seconds": round(time.process_time(), 3),
        "branches_per_sec": float(matrix_runs[0]["branches_per_second"]),
    }
    ledger = RunLedger(directory)
    ledger.prepare(record)
    flags = check_and_update(ledger.directory, record)
    ledger.append(record)
    for flag in flags:
        print(
            "regression [%s/%s]: %s"
            % (flag.get("severity"), flag.get("kind"), flag.get("detail")),
            file=sys.stderr,
        )
    print(f"ledger record appended to {directory}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS, help="comma-separated")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS, help="comma-separated")
    parser.add_argument("--branches", type=int, default=60_000, help="trace length per workload")
    parser.add_argument("--scale", type=int, default=8, help="capacity scale")
    parser.add_argument("--jobs", default="1,2,4,8", help="comma-separated jobs levels")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_throughput.json"),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="metrics.json with store-health gauges (default: metrics.json beside --output)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="append this run to the run-history ledger at DIR (same store "
        "`repro history` reads; the regression watchdog checks it against "
        "the rolling bench baseline)",
    )
    args = parser.parse_args(argv)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    jobs_levels = [int(j) for j in args.jobs.split(",") if j.strip()]
    config = RunnerConfig(scale=args.scale, num_branches=args.branches)

    print(
        f"matrix: {len(workloads)} workloads x {len(configs)} configs, "
        f"{args.branches} branches each, cpu_count={os.cpu_count()}"
    )
    bench_start = time.perf_counter()
    matrix_runs, serial_mpki = bench_jobs_sweep(config, workloads, configs, jobs_levels)
    cache_stats = bench_cache(config, workloads, configs)
    artifact_stats = bench_artifacts(config, workloads, configs)
    backend_stats = bench_backends(config, workloads, configs)
    base_stream_stats = bench_base_streams(config, workloads, configs)
    distributed_stats = bench_distributed(config, workloads, configs)

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "benchmark": {
            "workloads": workloads,
            "configs": configs,
            "branches_per_workload": args.branches,
            "scale": args.scale,
            "total_branches": args.branches * len(workloads) * len(configs),
        },
        "matrix": matrix_runs,
        "cache": cache_stats,
        "artifacts": artifact_stats,
        "backends": backend_stats,
        "base_streams": base_stream_stats,
        "distributed": distributed_stats,
        "notes": (
            "speedup_vs_jobs1 is bounded by machine.cpu_count; on a >=4-core "
            "machine jobs=4 approaches 4x on this embarrassingly parallel "
            "matrix. cache.speedup is hardware-independent: a warm cache "
            "performs zero simulations. artifacts compares artifact-cold vs "
            "warm-artifact wall-clock with a cold result cache (every cell "
            "simulates; the warm run performs zero trace generations -- "
            "bundles mmap from the store). phases split wall-clock into "
            "bundle build / artifact load / simulate (jobs=1 runs only; "
            "parallel runs spend these inside workers). matrix runs use the "
            "default path (shared-base groups per workload column); "
            "backends compares one base per cell (run_one per cell) vs "
            "shared-base groups (one run_cells call) serially on the matrix "
            "and on a 7-lane Fig-16 capacity sweep, with results asserted "
            "bit-identical. shared-base gains scale with lane count and "
            "base share of lane cost, not with core count. "
            "base_streams compares cold-base vs warm-base passes "
            "over one artifact store with a cold result cache (every cell "
            "simulates; the warm pass records zero streams). shared_base is "
            "the 7-lane one-base sweep, where warm only saves the single "
            "record pass; distinct_bases is seven TSL presets, each its own "
            "base, where cold records one stream per lone cell and warm "
            "replays each tail-only -- the persistent store's target shape. "
            "distributed compares 1 vs 2 cooperating host processes draining "
            "one cold shared store via ledger claims (zero duplicate "
            "simulations and bit-identity asserted); on a single-core "
            "machine 2 hosts time-slice one CPU, so the 2-host wall-clock "
            "shows protocol overhead, not scaling -- run on separate cores/"
            "machines for real speedup. distributed.cost_model scores the "
            "learned regressor vs the length-x-weight heuristic by "
            "leave-one-out MAPE on the timing samples the run persisted."
        ),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    # Store-health gauges (hit/miss/quarantine rates) in standard merged
    # metrics shape, alongside the throughput payload.
    metrics_path = Path(
        args.metrics_out
        if args.metrics_out is not None
        else Path(args.output).with_name("metrics.json")
    )
    metrics = obs.merge_snapshots([obs.registry().snapshot()])
    metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"wrote {metrics_path}")

    if args.ledger:
        append_ledger_record(
            args.ledger,
            args,
            workloads,
            configs,
            matrix_runs,
            serial_mpki,
            time.perf_counter() - bench_start,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Hot-path benchmark: the ``step`` kernel vs the two-call loop.

Measures the per-branch simulation loop in isolation (single process, one
predictor instance per timing run) rather than the experiment layer that
``bench_throughput.py`` covers.  For each configuration it times
``simulate(..., use_step=False)`` (the ``predict``/``update`` oracle) and
``simulate(..., use_step=True)`` (the kernel: a base record plus the
lane tail), asserts the two produce identical misprediction counts, and
reports branches/second plus the kernel/oracle speedup.

``--floor N`` turns the benchmark into a regression gate: the run exits
non-zero if any configuration's kernel ("fused") rate drops below N
branches/sec.  CI uses this on a short trace with a deliberately
conservative floor, so only order-of-magnitude regressions (an
accidentally de-specialised kernel, a resurrected per-branch allocation)
trip it on shared runners.

``--backend compare`` times a whole config column two ways: one
``run_one`` per cell (each cell records a base of its own) against one
``run_cells`` call (cells sharing a base config replay one recorded
stream).  It asserts the results are bit-identical and reports the
shared-base speedup (gated by ``--batched-floor``).
``--capacity-sweep N`` swaps the column for the Fig-16-style group
sharing was built for: by default (``--sweep-flavor llbpx``)
``tsl_64k`` plus ``N - 1`` ``llbpx_0lat`` capacity lanes sharing one
base; ``--sweep-flavor tsl`` uses the Fig-16b TSL capacity presets
instead -- ``N`` lanes with ``N`` *distinct* bases, the singleton-heavy
shape persistent base streams exist for.

``--backend base`` times the same column twice through ``run_cells``
against one artifact store with a cold result cache: a cold-base pass
that records (and persists) every group's base stream, then a warm-base
pass that adopts the persisted streams and runs tail-only.  Bit-identity
between the passes is asserted before the timings count, and
``--base-floor RATIO`` gates the warm speedup the same way
``--batched-floor`` gates ``compare``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --workload nodeapp --branches 40000 --configs tsl_64k,llbp,llbpx \
        --floor 25000 --json BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --backend compare --capacity-sweep 5 --branches 40000 \
        --batched-floor 1.05
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --backend base --capacity-sweep 7 --sweep-flavor tsl \
        --branches 40000 --base-floor 1.4
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

from repro.core import ArtifactStore, Runner, RunnerConfig
from repro.core.simulator import simulate
from repro.experiments.fig16_capacity import FIG16A_CONTEXTS

DEFAULT_CONFIGS = "tsl_64k,llbp,llbpx"

#: ``--sweep-flavor tsl``: the Fig-16b-style baseline-capacity lanes.
#: Every preset is its own base config, so each lane is a one-lane group
#: that records its own stream cold, while a warm artifact store turns
#: each into a tail-only replay -- the persistent-stream stress shape.
TSL_SWEEP_PRESETS = (
    "tsl_8k", "tsl_16k", "tsl_32k", "tsl_64k", "tsl_128k", "tsl_256k", "tsl_512k",
)


def bench_config(runner: Runner, workload: str, name: str) -> dict:
    """Time both loop kernels for one configuration; assert equivalence.

    Each timing run gets a freshly constructed predictor (the loop trains
    state in place), but the trace tensors -- the expensive precomputation
    -- are shared through the runner's workload bundle.
    """
    bundle = runner.bundle(workload)
    branches = len(bundle.trace)
    rates = {}
    mispredictions = {}
    for use_step, key in ((False, "unfused"), (True, "fused")):
        predictor = runner.build_predictor(name, bundle)
        start = time.perf_counter()
        result = simulate(predictor, bundle.trace, bundle.tensors, use_step=use_step)
        seconds = time.perf_counter() - start
        rates[key] = branches / seconds
        mispredictions[key] = result.mispredictions + result.warmup_mispredictions
    assert mispredictions["fused"] == mispredictions["unfused"], (
        f"{name}: fused kernel diverged "
        f"({mispredictions['fused']} vs {mispredictions['unfused']} mispredictions)"
    )
    return {
        "config": name,
        "branches": branches,
        "unfused_branches_per_second": round(rates["unfused"]),
        "fused_branches_per_second": round(rates["fused"]),
        "speedup": round(rates["fused"] / rates["unfused"], 3),
        "mispredictions": mispredictions["fused"],
    }


def sweep_cells(workload: str, configs: list, lanes: int, flavor: str = "llbpx") -> list:
    """The cell column the ``compare`` and ``base`` modes time.

    Without ``--capacity-sweep`` it is one lane per ``--configs`` entry;
    with it, either ``tsl_64k`` plus ``lanes - 1`` LLBP-X capacity points
    sharing one base (the shape shared-base groups exist for), or --
    ``flavor="tsl"`` -- ``lanes`` Fig-16b TSL presets with ``lanes``
    distinct bases.
    """
    if lanes <= 0:
        return [(workload, name, {}) for name in configs]
    if flavor == "tsl":
        return [(workload, name, {}) for name in TSL_SWEEP_PRESETS[:lanes]]
    cells = [(workload, "tsl_64k", {})]
    for contexts in FIG16A_CONTEXTS[: lanes - 1]:
        cells.append((workload, "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64}))
    return cells


def bench_column(config: RunnerConfig, workload: str, cells: list, mode: str) -> tuple:
    """Time one pass of ``cells``: ``one_base_per_cell`` or ``shared_base``.

    ``one_base_per_cell`` runs each cell through ``run_one`` (each records
    a base of its own); ``shared_base`` runs the column as one
    ``run_cells`` call (one base record per shared base config).  The
    workload bundle is built before the clock starts: both modes pay the
    same (untimed) precomputation, so the measurement isolates the
    simulation loops.  Returns ``(seconds, results)``.
    """
    runner = Runner(config)
    runner.bundle(workload)
    start = time.perf_counter()
    if mode == "one_base_per_cell":
        results = [runner.run_one(w, name, **overrides) for w, name, overrides in cells]
    else:
        results = runner.run_cells(cells, release_bundles=False)
    return time.perf_counter() - start, results


def bench_base_streams(args, configs: list) -> dict:
    """``--backend base``: cold-base vs warm-base execution.

    Both passes run the same column through ``run_cells`` with a cold
    result cache against one artifact store.  The cold pass records and
    persists every group's base stream (a lone cell is a one-lane
    group); the warm pass adopts every persisted stream and runs
    tail-only.  Bit-identity is asserted first.
    """
    cells = sweep_cells(args.workload, configs, args.capacity_sweep, args.sweep_flavor)
    run_config = RunnerConfig(scale=args.scale, num_branches=args.branches)
    lanes = len(cells)
    total_branches = lanes * args.branches
    label = ", ".join(f"{w}/{n}" for w, n, _ in cells)
    print(f"base-stream column: {lanes} lane(s) [{label}]")
    section = {"lanes": lanes, "cells": [[w, n, o] for w, n, o in cells], "modes": {}}
    results_by_mode = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-base-") as artifact_dir:
        for mode in ("cold", "warm"):
            store = ArtifactStore(artifact_dir)
            runner = Runner(run_config, artifacts=store)
            runner.bundle(args.workload)
            start = time.perf_counter()
            results_by_mode[mode] = runner.run_cells(cells, release_bundles=False)
            seconds = time.perf_counter() - start
            section["modes"][mode] = {
                "seconds": round(seconds, 4),
                "lane_branches_per_second": round(total_branches / seconds),
                "base_records": store.base_writes,
                "base_loads": store.base_loads,
            }
            print(
                f"{mode:>10s}: {seconds:8.3f}s  {total_branches / seconds:>9.0f} "
                f"lane-branches/s  ({store.base_loads} streams loaded)"
            )
        assert section["modes"]["warm"]["base_records"] == 0, "warm pass re-recorded a stream"
        assert section["modes"]["warm"]["base_loads"] >= 1, "warm pass loaded nothing"
        assert results_by_mode["cold"] == results_by_mode["warm"], (
            "warm-base replay diverged from cold-base execution"
        )
        speedup = section["modes"]["cold"]["seconds"] / section["modes"]["warm"]["seconds"]
        section["warm_speedup"] = round(speedup, 3)
        print(f"   warm speedup: x{speedup:.2f} (results bit-identical)")
    return section


def bench_compare(args, configs: list) -> dict:
    """``--backend compare``: one base per cell vs one shared base per group."""
    cells = sweep_cells(args.workload, configs, args.capacity_sweep, args.sweep_flavor)
    run_config = RunnerConfig(scale=args.scale, num_branches=args.branches)
    lanes = len(cells)
    total_branches = lanes * args.branches
    label = ", ".join(f"{w}/{n}" for w, n, _ in cells)
    print(f"compare column: {lanes} lane(s) [{label}]")
    section = {"lanes": lanes, "cells": [[w, n, o] for w, n, o in cells], "modes": {}}
    results_by_mode = {}
    for mode in ("one_base_per_cell", "shared_base"):
        seconds, results = bench_column(run_config, args.workload, cells, mode)
        results_by_mode[mode] = results
        rate = total_branches / seconds
        section["modes"][mode] = {
            "seconds": round(seconds, 4),
            "lane_branches_per_second": round(rate),
        }
        print(f"{mode:>18s}: {seconds:8.3f}s  {rate:>9.0f} lane-branches/s")
    assert results_by_mode["one_base_per_cell"] == results_by_mode["shared_base"], (
        "shared-base groups diverged from one base per cell"
    )
    speedup = (
        section["modes"]["one_base_per_cell"]["seconds"]
        / section["modes"]["shared_base"]["seconds"]
    )
    section["speedup"] = round(speedup, 3)
    print(f"   speedup: x{speedup:.2f} (results bit-identical)")
    return section


def append_ledger_record(directory, args, configs, rows, compare_section, base_section, wall):
    """Append this benchmark run to a run-history ledger (``--ledger``).

    The record has no embedded run report (the watchdog treats it as a
    pure throughput measurement); its result digest covers only
    deterministic outputs -- per-config misprediction counts in kernels
    mode, the cell column otherwise -- so a digest flip means the
    kernels' results changed, never that the machine got slower.
    """
    from repro.obs.ledger import RunLedger, matrix_digest, result_digest
    from repro.obs.regress import check_and_update

    mode = args.backend
    if rows:
        bps = sum(r["fused_branches_per_second"] for r in rows) / len(rows)
        outcome = [{"config": r["config"], "mispredictions": r["mispredictions"]} for r in rows]
        cells = len(rows)
    elif base_section is not None:
        bps = float(base_section["modes"]["warm"]["lane_branches_per_second"])
        outcome = [{"cells": base_section["cells"]}]
        cells = base_section["lanes"]
    else:
        timed = compare_section["modes"]
        bps = max(entry["lane_branches_per_second"] for entry in timed.values())
        outcome = [{"cells": compare_section["cells"]}]
        cells = compare_section["lanes"]
    identity = [
        "bench-hotpath|%s|%s|%s|%d|%d" % (mode, args.workload, name, args.branches, args.scale)
        for name in configs
    ]
    record = {
        "source": "bench",
        "context": {"benchmark": "hotpath", "mode": mode},
        "workloads": [args.workload],
        "configs": configs,
        "backend": "bench-hotpath:%s" % mode,
        "branches": args.branches * cells,
        "scale": args.scale,
        "matrix_digest": matrix_digest(identity),
        "result_digest": result_digest(outcome),
        "cells": cells,
        "cache_hit_rate": 0.0,
        "retries": 0,
        "wall_seconds": round(wall, 3),
        "cpu_seconds": round(time.process_time(), 3),
        "branches_per_sec": round(float(bps), 2),
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
    parser.add_argument("--workload", default="nodeapp", help="workload profile to simulate")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS, help="comma-separated")
    parser.add_argument("--branches", type=int, default=100_000, help="trace length")
    parser.add_argument("--scale", type=int, default=8, help="capacity scale")
    parser.add_argument(
        "--floor", type=int, default=None, metavar="BR_PER_SEC",
        help="fail (exit 1) if any config's fused rate is below this",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="append this run to the run-history ledger at DIR (read back "
             "with `repro history`; checked against the rolling bench baseline)",
    )
    parser.add_argument(
        "--backend", default="kernels",
        choices=("kernels", "compare", "base"),
        help="what to time: per-config kernels (default); compare: the "
             "whole config column with one base per cell vs one shared "
             "base per group (asserts bit-identity); or base: cold-base "
             "vs warm-base passes against one artifact store",
    )
    parser.add_argument(
        "--capacity-sweep", type=int, default=0, metavar="LANES",
        help="compare/base modes only: replace --configs with a LANES-lane "
             "Fig-16 capacity sweep (see --sweep-flavor)",
    )
    parser.add_argument(
        "--sweep-flavor", default="llbpx", choices=("llbpx", "tsl"),
        help="capacity-sweep shape: llbpx = tsl_64k plus LANES-1 "
             "llbpx_0lat lanes sharing one base; tsl = LANES Fig-16b TSL "
             "presets, each its own base",
    )
    parser.add_argument(
        "--batched-floor", type=float, default=None, metavar="RATIO",
        help="compare mode only: fail (exit 1) if the shared-base speedup "
             "over one base per cell is below RATIO",
    )
    parser.add_argument(
        "--base-floor", type=float, default=None, metavar="RATIO",
        help="base mode only: fail (exit 1) if the warm-base speedup "
             "over the cold-base pass is below RATIO",
    )
    args = parser.parse_args(argv)

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]

    print(
        f"hot path: {args.workload}, {args.branches} branches, "
        f"configs {', '.join(configs)}, cpu_count={os.cpu_count()}"
    )

    bench_start = time.perf_counter()
    compare_section = None
    base_section = None
    rows = []
    if args.backend == "base":
        base_section = bench_base_streams(args, configs)
    elif args.backend == "compare":
        compare_section = bench_compare(args, configs)
    else:
        runner = Runner(RunnerConfig(scale=args.scale, num_branches=args.branches))
        for name in configs:
            row = bench_config(runner, args.workload, name)
            rows.append(row)
            print(
                f"{name:>10s}: predict/update {row['unfused_branches_per_second']:>8d} br/s  "
                f"step {row['fused_branches_per_second']:>8d} br/s  "
                f"x{row['speedup']:.2f}  ({row['mispredictions']} mispredictions, identical)"
            )

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "benchmark": {
            "workload": args.workload,
            "branches": args.branches,
            "scale": args.scale,
            "configs": configs,
        },
        "results": rows,
    }
    if compare_section is not None:
        payload["shared_base_comparison"] = compare_section
    if base_section is not None:
        payload["base_streams"] = base_section
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.ledger:
        append_ledger_record(
            args.ledger,
            args,
            configs,
            rows,
            compare_section,
            base_section,
            time.perf_counter() - bench_start,
        )

    if args.base_floor is not None:
        if base_section is None:
            print("FAIL: --base-floor requires --backend base", file=sys.stderr)
            return 1
        if base_section["warm_speedup"] < args.base_floor:
            print(
                f"FAIL: warm-base speedup x{base_section['warm_speedup']:.2f} "
                f"below floor x{args.base_floor:.2f}",
                file=sys.stderr,
            )
            return 1
        print(
            f"base floor check passed "
            f"(x{base_section['warm_speedup']:.2f} >= x{args.base_floor:.2f})"
        )

    if args.batched_floor is not None:
        if compare_section is None:
            print("FAIL: --batched-floor requires --backend compare", file=sys.stderr)
            return 1
        if compare_section["speedup"] < args.batched_floor:
            print(
                f"FAIL: shared-base speedup x{compare_section['speedup']:.2f} "
                f"below floor x{args.batched_floor:.2f}",
                file=sys.stderr,
            )
            return 1
        print(f"batched floor check passed (x{compare_section['speedup']:.2f} >= x{args.batched_floor:.2f})")

    if args.floor is not None:
        slow = [r for r in rows if r["fused_branches_per_second"] < args.floor]
        if slow:
            for row in slow:
                print(
                    f"FAIL: {row['config']} step rate "
                    f"{row['fused_branches_per_second']} br/s below floor {args.floor}",
                    file=sys.stderr,
                )
            return 1
        print(f"floor check passed (all configs >= {args.floor} br/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

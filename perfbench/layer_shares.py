"""Per-layer shares of one traced pass at several trace lengths.

    python3 perfbench/layer_shares.py --workload matrix_cold --branches 20000 40000 120000

For each length the workload is set up once, then runs one untraced
pass and one traced pass; the two must produce the same outputs.  The
script prints a Markdown table: each layer's self time as a share of the
pass's work, which is the self time of every span in every process plus
the main process's time outside spans.  A pool dispatch's own self time
is waiting for its workers, so it is left out of the work.  The table in
``README.md`` under *Trace length* comes from this script; rerun it when
a workload's trace length or layers change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

import run
from tracer import Tracer, is_catch_all, layer_metrics, self_times
from workloads import WORKLOADS

#: table row -> span names whose self time it sums
GROUPS = {
    "traces": ("traces.generate",),
    "streams": ("streams.tensors", "streams.contexts"),
    "runner": ("runner.bundle", "runner.build_predictor"),
    "artifacts": (
        "artifacts.bundle_load", "artifacts.bundle_save", "artifacts.base_load", "artifacts.base_save",
    ),
    "batched (base, tail build, planning)": (
        "batched.plan", "batched.group", "batched.base_build", "batched.base_record",
        "batched.base_adopt", "batched.tail_build",
    ),
    "simulator": ("simulator.simulate",),
    "results_io": ("results_io.get", "results_io.put"),
    "parallel (worker side)": ("parallel.task",),
    "ledger": ("ledger.append", "ledger.check"),
    "cli.import": ("cli.import",),
}


def shares(spans: Sequence[dict], main_pid: int, wall: float) -> Dict[str, float]:
    """Each :data:`GROUPS` row's share of the pass's work, plus the rest."""
    own = self_times(spans)
    sums: Dict[str, float] = {row: 0.0 for row in GROUPS}
    catch_all = 0.0
    roots = 0.0
    for span in spans:
        name = str(span["name"])
        if span["pid"] == main_pid and span["parent"] is None:
            roots += span["end"] - span["start"]
        if name == "parallel.dispatch":
            continue
        if is_catch_all(name):
            catch_all += own[span["id"]]
            continue
        for row, names in GROUPS.items():
            if name in names:
                sums[row] += own[span["id"]]
    sums["harness and CLI code (catch-all roots)"] = catch_all
    sums["outside every span"] = max(0.0, wall - roots)
    work = sum(sums.values())
    return {row: value / work for row, value in sums.items()}


def measure(name: str, branches: int, scratch: Path) -> tuple:
    """(shares, pass wall, closure) of one traced pass at ``branches``."""
    workload = WORKLOADS[name](branches)
    (scratch / "setup").mkdir()
    state = workload.setup(scratch / "setup", None)
    untraced = run.timed_pass(workload, state, scratch / "pass-0", None)
    tracer = Tracer(scratch / "spool")
    traced = run.timed_pass(workload, state, scratch / "pass-1", tracer)
    if traced.result.outputs != untraced.result.outputs:
        raise SystemExit("%s at %d branches: traced outputs differ" % (name, branches))
    main_pid = os.getpid()
    closure = layer_metrics(traced.spans, main_pid, traced.wall)["trace.closure_ratio"]
    return shares(traced.spans, main_pid, traced.wall), traced.wall, closure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--branches", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    columns: List[tuple] = []
    run.SCRATCH.mkdir(exist_ok=True)
    for branches in args.branches:
        scratch = Path(tempfile.mkdtemp(prefix="shares-", dir=run.SCRATCH))
        try:
            columns.append((branches,) + measure(args.workload, branches, scratch))
        finally:
            run.reap_children()
            shutil.rmtree(scratch, ignore_errors=True)
    try:
        run.SCRATCH.rmdir()
    except OSError:
        pass
    print("| %s layer | %s |" % (args.workload, " | ".join("%dk" % (c[0] // 1000) for c in columns)))
    print("|---|%s" % ("---:|" * len(columns)))
    for row in columns[0][1]:
        print("| %s | %s |" % (row, " | ".join("%.1f%%" % (100 * c[1][row]) for c in columns)))
    print("| traced pass wall | %s |" % " | ".join("%.1f s" % c[2] for c in columns))
    print("| `trace.closure_ratio` | %s |" % " | ".join("%.3f" % c[3] for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())

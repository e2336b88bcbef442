"""Fig 13: speedup over the 64K TSL baseline (the gem5 stand-in).

Paper values: LLBP-X 1% average (0.08-2.7%), LLBP 0.71% average, ideal
512K TSL 2.4% average.  The Google traces are excluded, matching the
paper (they exist only in trace form there; here we simply honour the
same workload set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner
from repro.experiments.report import default_workloads, format_table, pct
from repro.timing.machines import table_ii_machine
from repro.timing.pipeline import speedup

FIG13_CONFIGS = ("llbp", "llbpx", "tsl_512k")

PAPER_AVERAGES = {"llbp": 0.71, "llbpx": 1.0, "tsl_512k": 2.4}


@dataclass
class Fig13Row:
    workload: str
    speedups: Dict[str, float] = field(default_factory=dict)


def run_fig13(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    configs: Sequence[str] = FIG13_CONFIGS,
    jobs: int = 1,
) -> List[Fig13Row]:
    names = list(workloads) if workloads is not None else default_workloads("gem5")
    runner.run_cells(
        [(w, c, {}) for w in names for c in ("tsl_64k", *configs)], jobs=jobs
    )
    machine = table_ii_machine()
    rows: List[Fig13Row] = []
    for workload in names:
        base = runner.run_one(workload, "tsl_64k")
        row = Fig13Row(workload=workload)
        for config in configs:
            row.speedups[config] = speedup(base, runner.run_one(workload, config), machine)
        rows.append(row)
        runner.release(workload)
    return rows


def format_fig13(rows: Sequence[Fig13Row], configs: Sequence[str] = FIG13_CONFIGS) -> str:
    body = [
        [row.workload] + [pct(row.speedups[c]) for c in configs] for row in rows
    ]
    body.append(
        ["average"]
        + [pct(sum(r.speedups[c] for r in rows) / len(rows)) for c in configs]
    )
    body.append(["paper avg"] + [pct(PAPER_AVERAGES[c]) for c in configs])
    return format_table(
        ["workload"] + [f"{c} speedup" for c in configs],
        body,
        title="Fig 13: speedup over 64K TSL (analytical pipeline model)",
    )

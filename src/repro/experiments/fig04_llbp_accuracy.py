"""Fig 4: LLBP vs the idealised 512K and infinite TSL, over 64K TSL.

Paper values: LLBP reduces MPKI by 0.6-25% (avg 8.8%), LLBP-0Lat a bit
more, 512K TSL by 12.7-46.1% (avg 27.5%), infinite TSL by 13.2-54%
(avg 32.5%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner, reduction
from repro.experiments.report import default_workloads, format_table, pct

FIG4_CONFIGS = ("llbp", "llbp_0lat", "tsl_512k", "tsl_inf")

PAPER_AVERAGES = {"llbp": 8.8, "tsl_512k": 27.5, "tsl_inf": 32.5}


@dataclass
class Fig4Row:
    workload: str
    baseline_mpki: float
    reductions: Dict[str, float] = field(default_factory=dict)


def run_fig04(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    configs: Sequence[str] = FIG4_CONFIGS,
    jobs: int = 1,
) -> List[Fig4Row]:
    names = list(workloads) if workloads is not None else default_workloads("all")
    runner.run_cells(
        [(w, c, {}) for w in names for c in ("tsl_64k", *configs)], jobs=jobs
    )
    rows: List[Fig4Row] = []
    for workload in names:
        base = runner.run_one(workload, "tsl_64k")
        row = Fig4Row(workload=workload, baseline_mpki=base.mpki)
        for config in configs:
            row.reductions[config] = reduction(base, runner.run_one(workload, config))
        rows.append(row)
        runner.release(workload)
    return rows


def format_fig04(rows: Sequence[Fig4Row], configs: Sequence[str] = FIG4_CONFIGS) -> str:
    body = []
    for row in rows:
        body.append(
            [row.workload, f"{row.baseline_mpki:.2f}"]
            + [pct(row.reductions[c]) for c in configs]
        )
    averages = ["average", ""]
    for config in configs:
        averages.append(pct(sum(r.reductions[config] for r in rows) / len(rows)))
    body.append(averages)
    body.append(
        ["paper avg", ""]
        + [pct(PAPER_AVERAGES[c]) if c in PAPER_AVERAGES else "-" for c in configs]
    )
    return format_table(
        ["workload", "64K MPKI"] + [f"{c} red." for c in configs],
        body,
        title="Fig 4: MPKI reduction of LLBP / 512K TSL / Inf TSL vs 64K TSL",
    )

"""Fig 12: the headline result -- LLBP-X vs LLBP vs Opt-W vs 512K TSL.

Paper values: LLBP-X reduces MPKI by 1.4-27% (avg 12.1%) vs 64K TSL, a
36% improvement over LLBP (avg 8.8%); Opt-W reaches 12.6% avg; the
idealised 512K TSL 27.5%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner, reduction
from repro.experiments.report import default_workloads, format_table, pct

FIG12_CONFIGS = ("llbp", "llbpx", "llbpx_optw", "tsl_512k")

PAPER_AVERAGES = {"llbp": 8.8, "llbpx": 12.1, "llbpx_optw": 12.6, "tsl_512k": 27.5}


@dataclass
class Fig12Row:
    workload: str
    baseline_mpki: float
    reductions: Dict[str, float] = field(default_factory=dict)

    @property
    def llbpx_gain_over_llbp(self) -> float:
        """LLBP-X's relative accuracy gain over LLBP (the paper's 0.8-11.5%)."""
        llbp_mpki = self.baseline_mpki * (1 - self.reductions["llbp"] / 100)
        llbpx_mpki = self.baseline_mpki * (1 - self.reductions["llbpx"] / 100)
        if llbp_mpki == 0:
            return 0.0
        return 100.0 * (llbp_mpki - llbpx_mpki) / llbp_mpki


def run_fig12(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    configs: Sequence[str] = FIG12_CONFIGS,
    jobs: int = 1,
) -> List[Fig12Row]:
    names = list(workloads) if workloads is not None else default_workloads("all")
    runner.run_cells(
        [(w, c, {}) for w in names for c in ("tsl_64k", *configs)], jobs=jobs
    )
    rows: List[Fig12Row] = []
    for workload in names:
        base = runner.run_one(workload, "tsl_64k")
        row = Fig12Row(workload=workload, baseline_mpki=base.mpki)
        for config in configs:
            row.reductions[config] = reduction(base, runner.run_one(workload, config))
        rows.append(row)
        runner.release(workload)
    return rows


def format_fig12(rows: Sequence[Fig12Row], configs: Sequence[str] = FIG12_CONFIGS) -> str:
    body = []
    for row in rows:
        body.append(
            [row.workload, f"{row.baseline_mpki:.2f}"]
            + [pct(row.reductions[c]) for c in configs]
            + [pct(row.llbpx_gain_over_llbp)]
        )
    averages = ["average", ""]
    for config in configs:
        averages.append(pct(sum(r.reductions[config] for r in rows) / len(rows)))
    averages.append(pct(sum(r.llbpx_gain_over_llbp for r in rows) / len(rows)))
    body.append(averages)
    body.append(
        ["paper avg", ""]
        + [pct(PAPER_AVERAGES.get(c, float("nan"))) for c in configs]
        + [pct(3.6)]
    )
    return format_table(
        ["workload", "64K MPKI"] + [f"{c} red." for c in configs] + ["X-over-LLBP"],
        body,
        title="Fig 12: branch misprediction reduction over 64K TSL",
    )

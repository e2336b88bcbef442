"""Tables I and II of the paper.

Table I lists the workloads with their 64K-TSL branch MPKI; Table II the
simulated processor parameters.  Table I also records the paper's
reference MPKI so reports can show paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner
from repro.experiments.report import default_workloads, format_table
from repro.timing.machines import TABLE_II

#: Table I of the paper: application -> 64K-TSL branch MPKI on real traces
PAPER_TABLE_I: Dict[str, float] = {
    "nodeapp": 4.43,
    "phpwiki": 3.08,
    "tpcc": 3.74,
    "twitter": 3.03,
    "wikipedia": 2.52,
    "kafka": 0.26,
    "spring": 3.58,
    "tomcat": 3.40,
    "chirper": 0.48,
    "finagle_http": 2.81,
    "charlie": 2.89,
    "delta": 1.09,
    "merced": 4.13,
    "whiskey": 5.38,
}


@dataclass
class TableIRow:
    workload: str
    measured_mpki: float
    paper_mpki: float


def run_table1(
    runner: Runner, workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[TableIRow]:
    """Measure 64K-TSL MPKI per workload (the baseline of everything)."""
    names = list(workloads) if workloads is not None else default_workloads("all")
    runner.run_cells([(w, "tsl_64k", {}) for w in names], jobs=jobs)
    rows = []
    for name in names:
        result = runner.run_one(name, "tsl_64k")
        rows.append(TableIRow(name, result.mpki, PAPER_TABLE_I.get(name, float("nan"))))
    return rows


def format_table1(rows: Sequence[TableIRow]) -> str:
    mean_measured = sum(r.measured_mpki for r in rows) / len(rows)
    mean_paper = sum(r.paper_mpki for r in rows) / len(rows)
    body = [[r.workload, f"{r.measured_mpki:.2f}", f"{r.paper_mpki:.2f}"] for r in rows]
    body.append(["average", f"{mean_measured:.2f}", f"{mean_paper:.2f}"])
    return format_table(
        ["workload", "measured MPKI (64K TSL)", "paper MPKI"],
        body,
        title="Table I: workloads with branch MPKI for 64K TSL",
    )


def format_table2() -> str:
    """Table II verbatim (the simulated-processor parameters)."""
    return format_table(
        ["component", "configuration"],
        [[k, v] for k, v in TABLE_II.items()],
        title="Table II: parameters of the simulated processor",
    )

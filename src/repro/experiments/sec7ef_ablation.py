"""§VII-E (optimisation breakdown) and §VII-F (sensitivity studies).

* Breakdown: of LLBP-X's gain over LLBP, the paper attributes 82% to
  dynamic context depth adaptation and 18% to dynamic history range
  selection.  We ablate history-range selection (``use_history_ranges``)
  to split the measured gain.
* Sensitivity: sweeps of H_th (paper optimum 232 on real traces; the
  scaled universe's optimum is lower -- the sweep includes both) and of
  the CTT capacity (paper: 6K entries suffice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.runner import Runner, reduction
from repro.experiments.report import default_workloads, format_table, pct

#: H_th sweep values: the scaled universe's range plus the paper's anchors
HTH_SWEEP = (18, 26, 37, 64, 112, 232, 1444)
#: CTT logical entry counts (paper sweeps 4K..8K)
CTT_SWEEP = (2048, 4096, 6144, 8192)


@dataclass
class BreakdownResult:
    llbp_reduction: float
    llbpx_reduction: float
    llbpx_no_ranges_reduction: float

    @property
    def total_gain(self) -> float:
        return self.llbpx_reduction - self.llbp_reduction

    @property
    def range_selection_share(self) -> float:
        """Fraction of the gain attributable to history range selection."""
        if self.total_gain == 0:
            return 0.0
        from_ranges = self.llbpx_reduction - self.llbpx_no_ranges_reduction
        return max(0.0, min(1.0, from_ranges / self.total_gain))

    @property
    def depth_adaptation_share(self) -> float:
        return 1.0 - self.range_selection_share


def run_breakdown(
    runner: Runner, workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> BreakdownResult:
    names = list(workloads) if workloads is not None else default_workloads("all")
    cells = [(w, c, {}) for w in names for c in ("tsl_64k", "llbp", "llbpx")]
    cells += [(w, "llbpx", {"use_history_ranges": False}) for w in names]
    runner.run_cells(cells, jobs=jobs)
    llbp_reds, llbpx_reds, ablated_reds = [], [], []
    for workload in names:
        base = runner.run_one(workload, "tsl_64k")
        llbp_reds.append(reduction(base, runner.run_one(workload, "llbp")))
        llbpx_reds.append(reduction(base, runner.run_one(workload, "llbpx")))
        ablated_reds.append(
            reduction(base, runner.run_one(workload, "llbpx", use_history_ranges=False))
        )
        runner.release(workload)
    n = len(names)
    return BreakdownResult(
        llbp_reduction=sum(llbp_reds) / n,
        llbpx_reduction=sum(llbpx_reds) / n,
        llbpx_no_ranges_reduction=sum(ablated_reds) / n,
    )


def format_breakdown(result: BreakdownResult) -> str:
    body = [
        ["LLBP", pct(result.llbp_reduction)],
        ["LLBP-X (full)", pct(result.llbpx_reduction)],
        ["LLBP-X w/o history ranges", pct(result.llbpx_no_ranges_reduction)],
        ["depth adaptation share", f"{100 * result.depth_adaptation_share:.0f}% (paper 82%)"],
        ["history range share", f"{100 * result.range_selection_share:.0f}% (paper 18%)"],
    ]
    return format_table(
        ["configuration", "avg MPKI reduction / share"],
        body,
        title="Sec VII-E: optimisation breakdown",
    )


@dataclass
class SensitivityPoint:
    label: str
    reduction_percent: float


def run_hth_sweep(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    values: Sequence[int] = HTH_SWEEP,
    jobs: int = 1,
) -> List[SensitivityPoint]:
    names = list(workloads) if workloads is not None else default_workloads("subset")
    cells = [(w, "tsl_64k", {}) for w in names]
    cells += [
        (w, "llbpx", {"history_threshold": h_th}) for h_th in values for w in names
    ]
    runner.run_cells(cells, jobs=jobs)
    points = []
    for h_th in values:
        reductions = []
        for workload in names:
            base = runner.run_one(workload, "tsl_64k")
            improved = runner.run_one(workload, "llbpx", history_threshold=h_th)
            reductions.append(reduction(base, improved))
        points.append(SensitivityPoint(f"H_th={h_th}", sum(reductions) / len(reductions)))
    for workload in names:
        runner.release(workload)
    return points


def run_ctt_sweep(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    values: Sequence[int] = CTT_SWEEP,
    jobs: int = 1,
) -> List[SensitivityPoint]:
    names = list(workloads) if workloads is not None else default_workloads("subset")
    cells = [(w, "tsl_64k", {}) for w in names]
    cells += [
        (w, "llbpx", {"ctt_entries": entries}) for entries in values for w in names
    ]
    runner.run_cells(cells, jobs=jobs)
    points = []
    for entries in values:
        reductions = []
        for workload in names:
            base = runner.run_one(workload, "tsl_64k")
            improved = runner.run_one(workload, "llbpx", ctt_entries=entries)
            reductions.append(reduction(base, improved))
        points.append(
            SensitivityPoint(f"CTT={entries // 1024}K", sum(reductions) / len(reductions))
        )
    for workload in names:
        runner.release(workload)
    return points


def format_sensitivity(hth: Sequence[SensitivityPoint], ctt: Sequence[SensitivityPoint]) -> str:
    table_h = format_table(
        ["H_th", "avg MPKI reduction"],
        [[p.label, pct(p.reduction_percent)] for p in hth],
        title="Sec VII-F: H_th sensitivity (paper best 232 on real traces; 13.6% at best)",
    )
    table_c = format_table(
        ["CTT entries", "avg MPKI reduction"],
        [[p.label, pct(p.reduction_percent)] for p in ctt],
        title="Sec VII-F: CTT capacity sensitivity (paper: 6K entries suffice)",
    )
    return table_h + "\n\n" + table_c

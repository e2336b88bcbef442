"""Fig 14: prefetch effectiveness, false-path effects, overriding scheme.

(a) classifies LLBP-X's prefetches into timely / late / never-used, with
and without wrong-path prefetches (paper: 84% timely, ~40% over-prefetch;
omitting false-path prefetches cuts over-prefetches by 56% but costs 8%
coverage and 1.4% accuracy).

(b) models the overriding pipeline: the bimodal and the PB answer in one
cycle; TAGE/SC overrides cost a 3-cycle redirect.  Paper: LLBP-X +1.4%
vs 128K TSL +0.6% over the 64K baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner
from repro.experiments.report import default_workloads, format_table, pct
from repro.metrics.prefetch import PrefetchReport, prefetch_report
from repro.timing.machines import table_ii_machine
from repro.timing.pipeline import speedup


@dataclass
class Fig14aResult:
    with_false_path: PrefetchReport
    without_false_path: PrefetchReport
    accuracy_drop_percent: float  # MPKI increase from dropping FP prefetches


def run_fig14a(
    runner: Runner, workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[Fig14aResult]:
    names = list(workloads) if workloads is not None else default_workloads("gem5")
    runner.run_cells(
        [
            (w, "llbpx", overrides)
            for w in names
            for overrides in (
                {"model_false_path": True},
                {"model_false_path": True, "flush_false_path": True},
            )
        ],
        jobs=jobs,
    )
    results = []
    for workload in names:
        with_fp = runner.run_one(workload, "llbpx", model_false_path=True)
        without_fp = runner.run_one(
            workload, "llbpx", model_false_path=True, flush_false_path=True
        )
        drop = 100.0 * (without_fp.mpki / with_fp.mpki - 1.0) if with_fp.mpki else 0.0
        results.append(
            Fig14aResult(
                with_false_path=prefetch_report(with_fp),
                without_false_path=prefetch_report(without_fp),
                accuracy_drop_percent=drop,
            )
        )
        runner.release(workload)
    return results


def format_fig14a(results: Sequence[Fig14aResult]) -> str:
    def aggregate(reports: Sequence[PrefetchReport]) -> PrefetchReport:
        return PrefetchReport(
            predictor=reports[0].predictor,
            workload="all",
            timely=sum(r.timely for r in reports),
            late=sum(r.late for r in reports),
            unused=sum(r.unused for r in reports),
            false_path_issued=sum(r.false_path_issued for r in reports),
        )

    with_fp = aggregate([r.with_false_path for r in results])
    without_fp = aggregate([r.without_false_path for r in results])
    over_reduction = (
        100.0 * (1.0 - without_fp.unused / with_fp.unused) if with_fp.unused else 0.0
    )
    # coverage compares *absolute* useful-prefetch volume, as in the paper
    covered_with = with_fp.timely + with_fp.late
    covered_without = without_fp.timely + without_fp.late
    coverage_drop = 100.0 * (1.0 - covered_without / covered_with) if covered_with else 0.0
    accuracy = sum(r.accuracy_drop_percent for r in results) / len(results)
    body = [
        [
            "with false path",
            f"{100 * with_fp.timely_fraction:.1f}%",
            f"{100 * with_fp.late_fraction:.1f}%",
            f"{100 * with_fp.unused_fraction:.1f}%",
        ],
        [
            "without false path",
            f"{100 * without_fp.timely_fraction:.1f}%",
            f"{100 * without_fp.late_fraction:.1f}%",
            f"{100 * without_fp.unused_fraction:.1f}%",
        ],
    ]
    table = format_table(
        ["variant", "timely", "late", "unused"],
        body,
        title="Fig 14a: prefetch effectiveness (paper: 84% timely, ~40% over-prefetch)",
    )
    return table + (
        f"\nomitting false-path prefetches: over-prefetch {pct(-over_reduction)} "
        f"(paper -56%), coverage {pct(-coverage_drop)} (paper -8%), "
        f"MPKI {pct(accuracy)} (paper +1.4%)"
    )


@dataclass
class Fig14bRow:
    workload: str
    speedups: Dict[str, float] = field(default_factory=dict)


FIG14B_CONFIGS = ("tsl_128k", "llbpx")


def run_fig14b(
    runner: Runner, workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[Fig14bRow]:
    names = list(workloads) if workloads is not None else default_workloads("gem5")
    runner.run_cells(
        [(w, c, {}) for w in names for c in ("tsl_64k", *FIG14B_CONFIGS)], jobs=jobs
    )
    machine = table_ii_machine()
    rows = []
    for workload in names:
        base = runner.run_one(workload, "tsl_64k")
        row = Fig14bRow(workload=workload)
        for config in FIG14B_CONFIGS:
            improved = runner.run_one(workload, config)
            row.speedups[config] = speedup(base, improved, machine, model_overriding=True)
        rows.append(row)
        runner.release(workload)
    return rows


def format_fig14b(rows: Sequence[Fig14bRow]) -> str:
    body = [[r.workload] + [pct(r.speedups[c]) for c in FIG14B_CONFIGS] for r in rows]
    body.append(
        ["average"]
        + [pct(sum(r.speedups[c] for r in rows) / len(rows)) for c in FIG14B_CONFIGS]
    )
    body.append(["paper avg", pct(0.6), pct(1.4)])
    return format_table(
        ["workload"] + [f"{c} speedup" for c in FIG14B_CONFIGS],
        body,
        title="Fig 14b: speedups under a 3-cycle overriding scheme",
    )

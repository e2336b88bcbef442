"""Fig 16: sensitivity to pattern-store and baseline-TAGE capacity.

(a) sweeps LLBP-X's pattern store from 8K to 128K contexts at 0-latency
with a fully associative directory (paper: -10.5% to -17.6% MPKI vs the
64K TSL, monotonically improving).

(b) sweeps the baseline TAGE from 8K- to 64K-entry configurations under a
fixed LLBP-X (paper: LLBP-X keeps helping smaller TAGEs, e.g. +2.6% on a
4x smaller baseline; reductions are relative to the same-size TSL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.runner import Runner, reduction
from repro.core.simulator import simulate
from repro.experiments.report import default_workloads, format_table, pct
from repro.llbp import LLBPX, llbpx_default
from repro.tage import preset_by_name

#: logical pattern-store context counts swept.  The paper sweeps 8K-128K
#: at full scale; the scaled universe's context working sets are ~8x
#: smaller, so the sweep extends downward to keep the capacity-pressured
#: region in frame (1K scaled = the paper's 8K regime).
FIG16A_CONTEXTS = (1024, 2048, 4096, 8192, 14336, 32768)
#: baseline TSL presets the paper sweeps
FIG16B_PRESETS = ("tsl_8k", "tsl_16k", "tsl_32k", "tsl_64k")


@dataclass
class SweepPoint:
    label: str
    reduction_percent: float


def run_fig16a(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    context_counts: Sequence[int] = FIG16A_CONTEXTS,
    jobs: int = 1,
) -> List[SweepPoint]:
    names = list(workloads) if workloads is not None else default_workloads("subset")
    cells = [(w, "tsl_64k", {}) for w in names]
    cells += [
        (w, "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64})
        for contexts in context_counts
        for w in names
    ]
    runner.run_cells(cells, jobs=jobs)
    points = []
    for contexts in context_counts:
        reductions = []
        for workload in names:
            base = runner.run_one(workload, "tsl_64k")
            improved = runner.run_one(
                workload,
                "llbpx_0lat",
                num_contexts=contexts,
                store_assoc=64,  # ~fully associative directory, as in the paper
            )
            reductions.append(reduction(base, improved))
        points.append(
            SweepPoint(label=f"{contexts // 1024}K ctx", reduction_percent=sum(reductions) / len(reductions))
        )
    for workload in names:
        runner.release(workload)
    return points


def run_fig16b(
    runner: Runner,
    workloads: Optional[Sequence[str]] = None,
    presets: Sequence[str] = FIG16B_PRESETS,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Each point: LLBP-X over a smaller TSL, relative to that same TSL.

    Only the TSL baselines run through ``run_cells`` (over ``jobs``
    workers) -- the LLBP-X-over-small-TSL runs are built directly on the
    bundle (no config name), so they stay in-process, reuse the bundles
    the baselines built and replay the base streams the baselines
    recorded (``runner.shared_base``).
    """
    names = list(workloads) if workloads is not None else default_workloads("subset")
    runner.run_cells(
        [(w, preset, {}) for preset in presets for w in names],
        jobs=jobs,
        release_bundles=False,
    )
    points = []
    for preset in presets:
        reductions = []
        for workload in names:
            bundle = runner.bundle(workload)
            tage_config = preset_by_name(preset, scale=runner.config.scale)
            base = runner.run_one(workload, preset)
            predictor = LLBPX(
                llbpx_default(scale=runner.config.scale, zero_latency=True),
                tage_config,
                bundle.tensors,
                bundle.contexts,
                base=runner.shared_base(workload, tage_config),
            )
            improved = simulate(
                predictor, bundle.trace, bundle.tensors,
                warmup_fraction=runner.config.warmup_fraction,
            )
            reductions.append(reduction(base, improved))
        points.append(SweepPoint(label=preset, reduction_percent=sum(reductions) / len(reductions)))
    for workload in names:
        runner.release(workload)
    return points


def format_fig16(points_a: Sequence[SweepPoint], points_b: Sequence[SweepPoint]) -> str:
    table_a = format_table(
        ["pattern store size", "MPKI reduction vs 64K TSL"],
        [[p.label, pct(p.reduction_percent)] for p in points_a],
        title="Fig 16a: LLBP-X pattern-store capacity sensitivity (paper: 10.5%..17.6%)",
    )
    table_b = format_table(
        ["baseline TSL", "LLBP-X MPKI reduction vs same TSL"],
        [[p.label, pct(p.reduction_percent)] for p in points_b],
        title="Fig 16b: baseline TAGE size sensitivity (paper: helps even 4x-smaller TAGE)",
    )
    return table_a + "\n\n" + table_b

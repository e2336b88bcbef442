"""Fig 1: the branch-prediction bottleneck grows on aggressive cores.

The paper measures Intel Skylake vs Sapphire Rapids with hardware
counters; this harness substitutes the two analytical machine models
(DESIGN.md §1) driven by the same traces.  The reproduced claim: the
aggressive machine achieves lower MPKI *and* lower CPI, yet the share of
stall cycles caused by branch mispredictions *increases*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.runner import Runner, RunnerConfig
from repro.experiments.report import format_table, pct
from repro.timing.machines import MachineConfig, sapphire_rapids_like, skylake_like
from repro.timing.pipeline import evaluate_timing

#: the three applications Fig 1 plots
FIG1_WORKLOADS = ("nodeapp", "tomcat", "wikipedia")


@dataclass
class Fig1Row:
    workload: str
    machine: str
    mpki: float
    cpi: float
    branch_stall_share: float


def _machine_runner(machine: MachineConfig, runner: Optional[Runner]) -> Runner:
    """The runner a machine's cells run on.

    The caller's own runner when the machine's config equals it (no
    cell simulates twice); otherwise a runner sharing the caller's
    result cache and artifact store, with no ledger of its own.
    """
    base_config = runner.config if runner is not None else RunnerConfig()
    config = RunnerConfig(
        scale=machine.predictor_scale,
        num_branches=base_config.num_branches,
        warmup_fraction=base_config.warmup_fraction,
    )
    if runner is None:
        return Runner(config)
    if config == runner.config:
        return runner
    return Runner(config, cache=runner.cache, artifacts=runner.artifacts, ledger=False)


def _run_machine(
    machine: MachineConfig,
    runner: Runner,
    workloads: Sequence[str],
    jobs: int = 1,
) -> List[Fig1Row]:
    runner.run_cells([(w, "tsl_64k", {}) for w in workloads], jobs=jobs)
    rows = []
    for workload in workloads:
        result = runner.run_one(workload, "tsl_64k")
        timing = evaluate_timing(result, machine)
        rows.append(
            Fig1Row(
                workload=workload,
                machine=machine.name,
                mpki=result.mpki,
                cpi=timing.cpi,
                branch_stall_share=timing.branch_stall_share,
            )
        )
        runner.release(workload)
    return rows


def run_fig01(
    runner: Optional[Runner] = None,
    workloads: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[Fig1Row]:
    names = list(workloads) if workloads is not None else list(FIG1_WORKLOADS)
    rows: List[Fig1Row] = []
    for machine in (skylake_like(), sapphire_rapids_like()):
        rows.extend(_run_machine(machine, _machine_runner(machine, runner), names, jobs=jobs))
    return rows


def format_fig01(rows: Sequence[Fig1Row]) -> str:
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row.workload, {})[row.machine] = row
    body = []
    for workload, machines in by_workload.items():
        sky = machines["skylake_like"]
        spr = machines["sapphire_rapids_like"]
        body.append(
            [
                workload,
                f"{sky.mpki:.2f}",
                f"{spr.mpki:.2f}",
                pct(100 * (spr.mpki / sky.mpki - 1)),
                f"{100 * sky.branch_stall_share:.1f}%",
                f"{100 * spr.branch_stall_share:.1f}%",
                pct(100 * (spr.branch_stall_share / sky.branch_stall_share - 1)),
            ]
        )
    return format_table(
        [
            "workload",
            "MPKI sky", "MPKI spr", "d MPKI",
            "br-stall% sky", "br-stall% spr", "d share",
        ],
        body,
        title="Fig 1: branch MPKI and branch-misprediction stall share, "
        "conservative vs aggressive machine",
    )

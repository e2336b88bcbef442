"""Fig 15: transfer bandwidth and energy, LLBP-X vs LLBP.

Paper values: LLBP-X moves 9.9 bits/instruction vs LLBP's 10.6 (-6.1%),
reads dominating (~5x the writes); energy rises 1.5% overall -- the
pattern store saves 5.4% but the new CTT adds 5.2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner
from repro.experiments.report import default_workloads, format_table, pct
from repro.llbp.config import llbp_default, llbpx_default
from repro.metrics.bandwidth import BandwidthReport, bandwidth_report
from repro.metrics.energy import EnergyReport, energy_report


@dataclass
class Fig15Result:
    bandwidth: Dict[str, List[BandwidthReport]]  # config -> per-workload reports
    energy: Dict[str, List[EnergyReport]]


def run_fig15(
    runner: Runner, workloads: Optional[Sequence[str]] = None, jobs: int = 1
) -> Fig15Result:
    names = list(workloads) if workloads is not None else default_workloads("all")
    runner.run_cells([(w, c, {}) for w in names for c in ("llbp", "llbpx")], jobs=jobs)
    scale = runner.config.scale
    configs = {"llbp": llbp_default(scale=scale), "llbpx": llbpx_default(scale=scale)}
    bandwidth: Dict[str, List[BandwidthReport]] = {c: [] for c in configs}
    energy: Dict[str, List[EnergyReport]] = {c: [] for c in configs}
    for workload in names:
        for config_name, config in configs.items():
            result = runner.run_one(workload, config_name)
            bandwidth[config_name].append(bandwidth_report(result))
            energy[config_name].append(energy_report(result, config))
        runner.release(workload)
    return Fig15Result(bandwidth=bandwidth, energy=energy)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def format_fig15(result: Fig15Result) -> str:
    rows = []
    means: Dict[str, float] = {}
    for config_name, reports in result.bandwidth.items():
        reads = _mean([r.read_bits_per_instruction for r in reports])
        writes = _mean([r.write_bits_per_instruction for r in reports])
        means[config_name] = reads + writes
        rows.append([config_name, f"{reads:.2f}", f"{writes:.2f}", f"{reads + writes:.2f}"])
    delta = 100.0 * (means["llbpx"] / means["llbp"] - 1.0) if means.get("llbp") else 0.0
    bw_table = format_table(
        ["design", "read b/inst", "write b/inst", "total b/inst"],
        rows,
        title="Fig 15a: pattern store <-> pattern buffer transfer bandwidth",
    )
    bw_note = f"LLBP-X vs LLBP bandwidth: {pct(delta)} (paper -6.1%)"

    # energy: aggregate per structure across workloads
    structure_totals: Dict[str, Dict[str, float]] = {}
    for config_name, reports in result.energy.items():
        totals: Dict[str, float] = {}
        for report in reports:
            for structure, value in report.per_structure.items():
                totals[structure] = totals.get(structure, 0.0) + value
        structure_totals[config_name] = totals
    llbp_total = sum(structure_totals["llbp"].values())
    structures = sorted(set().union(*structure_totals.values()))
    rows = []
    for structure in structures:
        rows.append(
            [structure]
            + [
                f"{100 * structure_totals[c].get(structure, 0.0) / llbp_total:.1f}%"
                for c in ("llbp", "llbpx")
            ]
        )
    llbpx_total = sum(structure_totals["llbpx"].values())
    rows.append(["total", "100.0%", f"{100 * llbpx_total / llbp_total:.1f}%"])
    energy_table = format_table(
        ["structure", "llbp", "llbpx"],
        rows,
        title="Fig 15b: energy relative to total LLBP energy (paper: LLBP-X +1.5%)",
    )
    return bw_table + "\n" + bw_note + "\n\n" + energy_table

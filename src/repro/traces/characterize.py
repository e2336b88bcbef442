"""Workload characterisation: structural statistics of generated traces.

Used to document the synthetic substrate (DESIGN.md §1's substitution
argument rests on these properties) and by tests that assert the
workloads stay server-like: substantial unconditional-branch share,
repeating call paths, a small H2P population with high dynamic weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from repro.traces.cfg import Program
from repro.traces.record import BranchKind, Trace
from repro.traces.workloads import WorkloadSpec, build_program


@dataclass
class WorkloadProfile:
    """Summary statistics of one generated workload trace."""

    name: str
    branches: int
    instructions: int
    conditional_share: float
    call_share: float
    return_share: float
    jump_share: float
    static_conditional: int
    branches_per_kilo_inst: float
    #: dynamic share of conditional executions per behaviour class
    behavior_shares: Dict[str, float]
    #: distinct (call, return) windows of depth 2 per 1K UBs -- a proxy for
    #: context-space size (lower = more repetitive paths)
    context_diversity: float


def characterize(trace: Trace, program: Optional[Program] = None, spec: Optional[WorkloadSpec] = None) -> WorkloadProfile:
    """Compute the profile of a trace (behaviour shares need the program)."""
    pcs_l, targets_l, kinds_l = trace.aslists("pcs", "targets", "kinds")
    kinds = Counter(kinds_l)
    n = len(trace)
    cond = kinds.get(int(BranchKind.COND), 0)

    behavior_shares: Dict[str, float] = {}
    if program is None and spec is not None:
        program = build_program(spec)
    if program is not None:
        tag_by_pc = {
            site.pc: site.behavior.tag
            for function in program.functions
            for site in function.conditional_sites()
        }
        tags = Counter(
            tag_by_pc.get(pc, "loopback")
            for pc, kind in zip(pcs_l, kinds_l)
            if kind == int(BranchKind.COND)
        )
        total = sum(tags.values())
        behavior_shares = {tag: count / total for tag, count in sorted(tags.items())}

    # context diversity: distinct depth-2 call/return windows per 1K UBs
    ub_stream = [
        (pc, target)
        for pc, target, kind in zip(pcs_l, targets_l, kinds_l)
        if kind in (int(BranchKind.CALL), int(BranchKind.RETURN))
    ]
    windows = {tuple(ub_stream[i : i + 2]) for i in range(len(ub_stream) - 1)}
    diversity = 1000.0 * len(windows) / max(1, len(ub_stream))

    instructions = trace.num_instructions
    static_cond = len(
        {pc for pc, kind in zip(pcs_l, kinds_l) if kind == int(BranchKind.COND)}
    )
    return WorkloadProfile(
        name=trace.name,
        branches=n,
        instructions=instructions,
        conditional_share=cond / n if n else 0.0,
        call_share=kinds.get(int(BranchKind.CALL), 0) / n if n else 0.0,
        return_share=kinds.get(int(BranchKind.RETURN), 0) / n if n else 0.0,
        jump_share=kinds.get(int(BranchKind.JUMP), 0) / n if n else 0.0,
        static_conditional=static_cond,
        branches_per_kilo_inst=1000.0 * n / instructions if instructions else 0.0,
        behavior_shares=behavior_shares,
        context_diversity=diversity,
    )

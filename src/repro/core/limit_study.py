"""The LLBP limit study of paper §III-A (Fig 5).

Starting from the 0-latency LLBP, design constraints are removed one at a
time, cumulatively:

1. ``+No Design Tweaks`` -- fully-associative pattern sets (no
   bucketing), all 21 TAGE history lengths, SC override re-enabled.
2. ``+20b Tag``           -- pattern tags widened to TAGE's entropy.
3. ``+Inf Contexts``      -- unbounded context directory, full context IDs.
4. ``+Inf Patterns``      -- unbounded pattern sets.
5. ``+No Contextualization`` -- context ID := branch PC (one unbounded
   set per branch).

Each step reports MPKI relative to the 0-latency LLBP baseline and the
reduction relative to the previous step, exactly the quantities Fig 5
plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.runner import Runner

#: the cumulative ladder: step label -> LLBPConfig overrides
LIMIT_STEPS: List[tuple] = [
    ("LLBP-0Lat", {}),
    (
        "+No Design Tweaks",
        {"use_bucketing": False, "restrict_histories": False, "suppress_sc": False},
    ),
    ("+20b Tag", {"pattern_tag_bits": 20}),
    ("+Inf Contexts", {"infinite_contexts": True}),
    ("+Inf Patterns", {"infinite_patterns": True}),
    ("+No Contextualization", {"no_contextualization": True}),
]


@dataclass
class LimitStep:
    """Result of one rung of the limit-study ladder."""

    label: str
    mpki: float
    normalized: float  # MPKI / baseline (LLBP-0Lat) MPKI
    step_reduction: float  # % reduction relative to the previous rung


def cumulative_overrides(up_to: int) -> Dict[str, object]:
    """Merged config overrides for ladder rungs ``0..up_to`` inclusive."""
    merged: Dict[str, object] = {}
    for _, overrides in LIMIT_STEPS[: up_to + 1]:
        merged.update(overrides)
    return merged


def run_limit_study(
    runner: Runner,
    workloads: Sequence[str],
    steps: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> List[LimitStep]:
    """Run the ladder, averaging MPKI across ``workloads`` per rung.

    Every (workload, rung) cell runs first through ``run_cells`` (over
    ``jobs`` workers, grouping rungs that share a base); the ladder then
    reads memoised results.
    """
    indices = list(steps) if steps is not None else list(range(len(LIMIT_STEPS)))
    runner.run_cells(
        [(w, "llbp_0lat", cumulative_overrides(i)) for i in indices for w in workloads],
        jobs=jobs,
    )
    results: List[LimitStep] = []
    baseline_mpki: Optional[float] = None
    previous_mpki: Optional[float] = None
    for index in indices:
        label = LIMIT_STEPS[index][0]
        overrides = cumulative_overrides(index)
        mpkis = [runner.run_one(w, "llbp_0lat", **overrides).mpki for w in workloads]
        mean = sum(mpkis) / len(mpkis)
        if baseline_mpki is None:
            baseline_mpki = mean
        step_red = 0.0 if previous_mpki is None else 100.0 * (previous_mpki - mean) / previous_mpki
        results.append(
            LimitStep(
                label=label,
                mpki=mean,
                normalized=mean / baseline_mpki,
                step_reduction=step_red,
            )
        )
        previous_mpki = mean
    return results

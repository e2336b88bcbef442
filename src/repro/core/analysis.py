"""Context/pattern analyses behind Figs 6-9 of the paper.

All four analyses run an instrumented, limit-configured LLBP
(0-latency, unbounded contexts, fully-associative sets) with the
``track_useful`` flag, then reduce the resulting
:class:`~repro.llbp.pattern.UsefulTracker` into the series the paper
plots:

* Fig 6 -- useful patterns per context, sorted descending;
* Fig 7 -- average history length of useful patterns, same context order;
* Fig 8 -- duplicate fraction of useful patterns per history length, for
  several context depths W;
* Fig 9 -- useful predictions per history length for W in {2, 64},
  normalised to the W=8 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.runner import Runner
from repro.core.simulator import simulate
from repro.llbp import LLBP
from repro.llbp.config import llbp_default
from repro.tage import tsl_64k
from repro.tage.config import HISTORY_LENGTHS

#: limit configuration used by the paper's Fig 6 analysis ("+ Inf Patterns")
_ANALYSIS_OVERRIDES = dict(
    zero_latency=True,
    infinite_contexts=True,
    infinite_patterns=True,
    use_bucketing=False,
    restrict_histories=False,
    track_useful=True,
)


def _run_instrumented(runner: Runner, workload: str, context_depth: int) -> LLBP:
    """Run the instrumented limit-LLBP and return it (tracker populated).

    Its tail replays the runner's ``tsl_64k`` base stream for the
    workload, recorded at most once per runner.
    """
    bundle = runner.bundle(workload)
    config = llbp_default(
        scale=runner.config.scale, context_depth=context_depth, **_ANALYSIS_OVERRIDES
    )
    tage_config = tsl_64k(scale=runner.config.scale)
    predictor = LLBP(
        config,
        tage_config,
        bundle.tensors,
        bundle.contexts,
        base=runner.shared_base(workload, tage_config),
    )
    simulate(predictor, bundle.trace, bundle.tensors, warmup_fraction=runner.config.warmup_fraction)
    return predictor


@dataclass
class ContextProfile:
    """Per-context useful-pattern profile (Figs 6 and 7)."""

    workload: str
    context_depth: int
    #: useful-pattern count per context, sorted descending (Fig 6's y-axis)
    counts: List[int]
    #: average useful-pattern history length, in the same context order (Fig 7)
    avg_lengths: List[float]
    pattern_set_capacity: int
    num_store_contexts: int

    @property
    def over_capacity_fraction(self) -> float:
        """Fraction of contexts whose useful patterns exceed a pattern set."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c > self.pattern_set_capacity) / len(self.counts)

    @property
    def underutilized_fraction(self) -> float:
        """Fraction of contexts with at most half a pattern set of useful patterns."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c <= self.pattern_set_capacity // 2) / len(self.counts)


def context_profile(runner: Runner, workload: str, context_depth: int = 8) -> ContextProfile:
    """Compute the Fig 6/7 per-context profile for one workload."""
    predictor = _run_instrumented(runner, workload, context_depth)
    assert predictor.tracker is not None
    counts_by_ctx = predictor.tracker.per_context_counts()
    lengths_by_ctx = predictor.tracker.per_context_lengths(list(HISTORY_LENGTHS))
    ordered = sorted(counts_by_ctx.items(), key=lambda kv: -kv[1])
    return ContextProfile(
        workload=workload,
        context_depth=context_depth,
        counts=[count for _, count in ordered],
        avg_lengths=[lengths_by_ctx[cid] for cid, _ in ordered],
        pattern_set_capacity=predictor.config.patterns_per_set,
        num_store_contexts=predictor.config.effective_contexts,
    )


def duplication_by_depth(
    runner: Runner, workload: str, depths: Sequence[int] = (2, 8, 64)
) -> Dict[int, Dict[int, float]]:
    """Fig 8: ``{W: {history_length: duplicate_fraction}}``."""
    out: Dict[int, Dict[int, float]] = {}
    for depth in depths:
        predictor = _run_instrumented(runner, workload, depth)
        assert predictor.tracker is not None
        out[depth] = predictor.tracker.duplication_by_length(list(HISTORY_LENGTHS))
    return out


def useful_by_depth(
    runner: Runner, workload: str, depths: Sequence[int] = (2, 8, 64)
) -> Dict[int, Dict[int, int]]:
    """Raw useful-prediction counts per history length for each depth W."""
    out: Dict[int, Dict[int, int]] = {}
    for depth in depths:
        predictor = _run_instrumented(runner, workload, depth)
        assert predictor.tracker is not None
        out[depth] = predictor.tracker.useful_by_length(list(HISTORY_LENGTHS))
    return out


def depth_sweep_relative(
    runner: Runner,
    workload: str,
    depths: Tuple[int, int] = (2, 64),
    baseline_depth: int = 8,
) -> Dict[int, Dict[int, float]]:
    """Fig 9: useful predictions per length for each W, relative to W=8.

    Returns ``{W: {history_length: ratio}}`` where ratio > 1 means more
    useful predictions than the baseline depth delivered at that length.
    """
    raw = useful_by_depth(runner, workload, list(depths) + [baseline_depth])
    base = raw[baseline_depth]
    out: Dict[int, Dict[int, float]] = {}
    for depth in depths:
        ratios: Dict[int, float] = {}
        for length, base_count in base.items():
            if base_count == 0:
                continue
            ratios[length] = raw[depth].get(length, 0) / base_count
        out[depth] = ratios
    return out

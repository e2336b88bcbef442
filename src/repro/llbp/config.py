"""Configuration for LLBP and LLBP-X.

All of the paper's design parameters live here, including the limit-study
toggles of §III-A (Fig 5): design tweaks on/off, wider pattern tags,
infinite contexts, infinite patterns per set, and no contextualisation.
Capacities follow the original papers (14K contexts x 16 patterns in the
pattern store, 64-entry pattern buffer, 6K-entry CTT) and scale with the
same ``scale`` divisor as the TAGE presets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.tage.config import (
    DEEP_HISTORY_LENGTHS,
    HISTORY_LENGTHS,
    LLBP_HISTORY_LENGTHS,
    SHALLOW_HISTORY_LENGTHS,
)


@dataclass(frozen=True)
class LLBPConfig:
    """Knobs of the original LLBP design (paper §II-C, §VI)."""

    name: str = "llbp"
    # --- context formation -----------------------------------------------------
    context_depth: int = 8  # W: unconditional branches hashed into a context ID
    prefetch_distance: int = 4  # D: most recent UBs skipped (latency-hiding window)
    # --- pattern store ----------------------------------------------------------
    num_contexts: int = 14336  # pattern sets in the LLBP pattern store (14K)
    store_assoc: int = 7  # context directory associativity
    patterns_per_set: int = 16
    num_buckets: int = 4  # pattern-set buckets (design tweak: sorted per bucket)
    context_tag_bits: int = 14
    pattern_tag_bits: int = 13
    pattern_counter_bits: int = 3
    # --- pattern buffer -----------------------------------------------------------
    pattern_buffer_entries: int = 64
    access_latency: int = 6  # cycles from prefetch to PB availability
    # --- design tweaks (paper §II-C.4); disabled together by "+No Design Tweaks" --
    use_bucketing: bool = True
    restrict_histories: bool = True  # keep only 16 of TAGE's 21 history lengths
    suppress_sc: bool = True  # skip the SC when LLBP provides
    # --- limit-study switches (paper §III-A) ----------------------------------------
    infinite_contexts: bool = False
    infinite_patterns: bool = False
    no_contextualization: bool = False  # context ID := branch PC
    zero_latency: bool = False
    # --- capacity scaling (shared with the TAGE presets; DESIGN.md §1) ---------------
    scale: int = 1
    # --- wrong-path modelling (Fig 14a) ------------------------------------------
    model_false_path: bool = False  # issue wrong-path prefetches after mispredictions
    flush_false_path: bool = False  # drop false-path prefetches from the PB on resolve
    # --- analysis instrumentation (Figs 6-9; costs memory, off by default) ----------
    track_useful: bool = False

    def __post_init__(self) -> None:
        if self.context_depth < 0:
            raise ValueError(f"context depth W must be >= 0, got {self.context_depth}")
        if self.prefetch_distance < 0:
            raise ValueError(f"prefetch distance D must be >= 0, got {self.prefetch_distance}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.patterns_per_set < 1:
            raise ValueError("need at least one pattern per set")
        if self.use_bucketing and self.patterns_per_set % self.num_buckets:
            raise ValueError(
                f"{self.patterns_per_set} patterns cannot fill {self.num_buckets} buckets evenly"
            )

    @property
    def effective_contexts(self) -> int:
        return max(self.store_assoc, self.num_contexts // self.scale)

    @property
    def effective_latency(self) -> int:
        return 0 if self.zero_latency else self.access_latency

    @property
    def history_lengths(self) -> Tuple[int, ...]:
        """The history lengths LLBP may store patterns for."""
        if self.restrict_histories:
            return LLBP_HISTORY_LENGTHS
        return HISTORY_LENGTHS

    @property
    def bucket_size(self) -> int:
        return self.patterns_per_set // self.num_buckets

    def storage_bits(self) -> int:
        """Approximate second-level storage (pattern store + CD), in bits."""
        pattern_bits = self.pattern_tag_bits + self.pattern_counter_bits + 5  # 5b length field
        per_set = self.patterns_per_set * pattern_bits
        directory = self.effective_contexts * (self.context_tag_bits + 3)
        return self.effective_contexts * per_set + directory

    def scaled(self, scale: int) -> "LLBPConfig":
        return replace(self, scale=scale)


@dataclass(frozen=True)
class LLBPXConfig(LLBPConfig):
    """LLBP-X: dynamic context depth adaptation plus history range selection.

    Defaults follow §VI: shallow W=2, deep W=64, a 6K-entry 6-way CTT with
    3-bit avg-hist-len counters, overflow threshold of 7 confident
    patterns, and H_th = 232.  ``no_contextualization`` is rejected: the
    limit study runs it on LLBP only, and depth adaptation needs context
    IDs to adapt.
    """

    name: str = "llbpx"
    shallow_depth: int = 2
    deep_depth: int = 64
    ctt_entries: int = 6144
    ctt_assoc: int = 6
    ctt_tag_bits: int = 6
    avg_hist_len_bits: int = 3
    overflow_threshold: int = 7  # patterns in a set before a context is tracked
    #: H_th: allocation length that bumps avg-hist-len.  The paper's server
    #: traces use 232; the scaled synthetic universe has shorter useful
    #: histories, so the calibrated default is 64 (swept in bench_sec7f,
    #: which includes the paper's 232 and 1444).
    history_threshold: int = 64
    #: increment applied to avg-hist-len per long allocation attempt (the
    #: decrement per short attempt is always 1).  The paper's traces are
    #: long-history-rich so +-1 suffices there; the scaled universe sees a
    #: shorter length mix, so long attempts carry more weight.
    hist_counter_step: int = 4
    use_history_ranges: bool = True  # restrict lengths by depth (§V-C)
    #: Opt-W oracle: mapping shallow-context-id -> use-deep, fixed ahead of
    #: time (profile-then-replay); None means adapt dynamically via the CTT
    oracle_depths: Optional[dict] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shallow_depth >= self.deep_depth:
            raise ValueError("shallow depth must be smaller than deep depth")
        if not 0 < self.overflow_threshold <= self.patterns_per_set:
            raise ValueError("overflow threshold must be within the pattern set size")
        if self.no_contextualization:
            raise ValueError("LLBP-X has no no_contextualization mode (its depths need context IDs)")

    @property
    def effective_ctt_entries(self) -> int:
        return max(self.ctt_assoc, self.ctt_entries // self.scale)

    @property
    def shallow_lengths(self) -> Tuple[int, ...]:
        """History lengths available to shallow (W=2) contexts."""
        if self.use_history_ranges:
            return SHALLOW_HISTORY_LENGTHS
        return self.history_lengths

    @property
    def deep_lengths(self) -> Tuple[int, ...]:
        """History lengths available to deep (W=64) contexts."""
        if self.use_history_ranges:
            return DEEP_HISTORY_LENGTHS
        return self.history_lengths

    def storage_bits(self) -> int:
        ctt_entry_bits = self.ctt_tag_bits + self.avg_hist_len_bits + 1 + 2
        return super().storage_bits() + self.effective_ctt_entries * ctt_entry_bits


def llbp_default(scale: int = 1, **overrides) -> LLBPConfig:
    """The original LLBP as evaluated in the paper (515KB budget)."""
    return replace(LLBPConfig(), scale=scale, **overrides)


def llbp_zero_latency(scale: int = 1, **overrides) -> LLBPConfig:
    """LLBP-0Lat: the 0-cycle-access variant used by Fig 4 and the limit study."""
    return replace(LLBPConfig(name="llbp_0lat", zero_latency=True), scale=scale, **overrides)


def llbpx_default(scale: int = 1, **overrides) -> LLBPXConfig:
    """LLBP-X as specified in §VI."""
    return replace(LLBPXConfig(), scale=scale, **overrides)

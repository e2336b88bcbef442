"""LLBP-X: dynamic context depth adaptation + history range selection (§V).

LLBP-X keeps the entire LLBP machinery and changes three things:

1. **Dual context IDs** -- the rolling context register produces both a
   shallow (W=2) and a deep (W=64) context ID per branch; a Context
   Tracking Table (CTT), indexed by the shallow ID, selects which one is
   used for the context directory, the pattern buffer, and prefetching.
2. **Dynamic depth adaptation** -- when a pattern set fills with
   confident patterns (the PB overflow signal), its shallow context
   enters the CTT; the ``avg-hist-len`` counter then migrates the context
   to deep when allocations keep exceeding ``H_th``, with hysteresis in
   the reverse direction.
3. **History range selection** -- shallow contexts may only store the 16
   shortest TAGE history lengths (6..232), deep contexts the 16 longest
   (37..3000); out-of-range allocations are dropped but still feed the
   ``avg-hist-len`` counter, so a shallow context that keeps wanting long
   patterns eventually transitions.

The ``oracle_depths`` configuration implements the paper's *LLBP-X Opt-W*
upper bound: per-context depths fixed ahead of time (profile-then-replay)
so no retraining is lost on transitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.llbp.config import LLBPXConfig
from repro.llbp.ctt import ContextTrackingTable
from repro.llbp.llbp import LLBP
from repro.llbp.pattern import Pattern, PatternSet, make_bucket_ranges
from repro.llbp.rcr import DEEP_BIT, ID_MASK, ContextStreams
from repro.tage.batched_state import SharedBase
from repro.tage.config import HISTORY_LENGTHS, TageConfig, history_length_index
from repro.tage.streams import TraceTensors


class LLBPX(LLBP):
    """LLBP with dynamic context depth adaptation (the paper's proposal)."""

    config: LLBPXConfig

    def __init__(
        self,
        config: LLBPXConfig,
        tage_config: TageConfig,
        tensors: TraceTensors,
        context_streams: Optional[ContextStreams] = None,
        base: Optional[SharedBase] = None,
    ) -> None:
        super().__init__(config, tage_config, tensors, context_streams, base=base)
        self._shallow_window = self.contexts.window_hashes(config.shallow_depth)
        self._deep_window = self.contexts.window_hashes(config.deep_depth)
        self.ctt = ContextTrackingTable(
            entries=config.effective_ctt_entries,
            assoc=config.ctt_assoc,
            tag_bits=config.ctt_tag_bits,
            avg_hist_len_bits=config.avg_hist_len_bits,
        )
        self._shallow_indices = sorted(history_length_index(l) for l in config.shallow_lengths)
        self._deep_indices = sorted(history_length_index(l) for l in config.deep_lengths)
        bucket_size = config.bucket_size
        if config.use_bucketing and self._set_capacity > 0:
            self._shallow_buckets: Optional[List[Tuple[int, int, int]]] = make_bucket_ranges(
                self._shallow_indices, config.num_buckets, bucket_size
            )
            self._deep_buckets: Optional[List[Tuple[int, int, int]]] = make_bucket_ranges(
                self._deep_indices, config.num_buckets, bucket_size
            )
        else:
            self._shallow_buckets = None
            self._deep_buckets = None
        #: every shallow context that ever transitioned to deep (Opt-W profiling)
        self.deep_history: Set[int] = set()
        self._oracle: Optional[Dict[int, bool]] = config.oracle_depths

    # -- depth selection -----------------------------------------------------------

    def _shallow_context_of(self, t: int) -> int:
        end = self._ub_prefix[t] - self.config.prefetch_distance - 1
        if end < 0:
            return -1
        return self._shallow_window[end] & ID_MASK

    def _is_deep(self, shallow_id: int) -> bool:
        if self._oracle is not None:
            return self._oracle.get(shallow_id, False)
        return self.ctt.is_deep(shallow_id)

    def _context_of(self, t: int, pc: int) -> int:
        end = self._ub_prefix[t] - self.config.prefetch_distance - 1
        if end < 0:
            return -1
        shallow_id = self._shallow_window[end] & ID_MASK
        if self._is_deep(shallow_id):
            return (self._deep_window[end] & ID_MASK) | DEEP_BIT
        return shallow_id

    def _prefetch_id(self, ub_index: int) -> int:
        shallow_id = self._shallow_window[ub_index] & ID_MASK
        if self._is_deep(shallow_id):
            return (self._deep_window[ub_index] & ID_MASK) | DEEP_BIT
        return shallow_id

    # -- depth-dependent pattern-set layout ---------------------------------------------

    def _bucket_ranges_for(self, context_id: int) -> Optional[List[Tuple[int, int, int]]]:
        if context_id & DEEP_BIT:
            return self._deep_buckets
        return self._shallow_buckets

    def _active_indices_for(self, context_id: int) -> List[int]:
        if context_id & DEEP_BIT:
            return self._deep_indices
        return self._shallow_indices

    # -- CTT feedback ---------------------------------------------------------------------

    def _choose_allocation_index(self, context_id: int, provider_index: int) -> Tuple[int, int]:
        """LLBP-X attempts TAGE's natural next length and *drops* attempts
        outside the context's active history range (paper §V-C)."""
        attempted = provider_index + 1
        if attempted >= len(HISTORY_LENGTHS):
            return -1, -1
        active = self._active_indices_for(context_id)
        if active[0] <= attempted <= active[-1]:
            return attempted, attempted
        return -1, attempted

    def _on_allocation(
        self,
        t: int,
        context_id: int,
        pattern_set: Optional[PatternSet],
        length_index: int,
        allocated: Optional[Pattern],
    ) -> None:
        if self._oracle is not None:
            return  # Opt-W: depths fixed, no adaptation
        shallow_id = self._shallow_context_of(t)
        if shallow_id == -1:
            return
        # Overflow signal (heuristic 1, T_max): a pattern set filling up
        # makes its shallow context a tracking candidate.
        if pattern_set is not None and len(pattern_set) >= self.config.overflow_threshold:
            self.ctt.track(shallow_id)
            self.stats.add("ctt_overflow_signals")
        # Heuristic 2: history length of allocation attempts (including
        # dropped ones) drives the avg-hist-len counter.
        transition = self.ctt.observe_allocation(
            shallow_id,
            HISTORY_LENGTHS[length_index],
            self.config.history_threshold,
            self.config.hist_counter_step,
        )
        if transition is True:
            self.deep_history.add(shallow_id)
            self.stats.add("depth_to_deep")
        elif transition is False:
            self.stats.add("depth_to_shallow")

    # -- reporting -------------------------------------------------------------------------

    def collect_extra(self) -> Dict[str, float]:
        extra = super().collect_extra()
        extra["ctt_tracked"] = float(self.ctt.tracked_count())
        extra["ctt_deep"] = float(self.ctt.deep_count())
        extra["deep_contexts_seen"] = float(len(self.deep_history))
        return extra

    def telemetry_sample(self) -> Dict[str, float]:
        sample = super().telemetry_sample()
        sample["ctt.tracked"] = float(self.ctt.tracked_count())
        sample["ctt.deep"] = float(self.ctt.deep_count())
        sample["ctt.deep_seen"] = float(len(self.deep_history))
        return sample

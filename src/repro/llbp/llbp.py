"""LLBP: the Last-Level Branch Predictor (paper §II-C), wrapping a TSL.

The predictor composes four hardware structures -- rolling context
register (precomputed as :class:`~repro.llbp.rcr.ContextStreams`),
context directory + pattern store (:class:`PatternStore`), and pattern
buffer (:class:`PatternBuffer`) -- around an unmodified first-level
TAGE-SC-L:

* **Prefetch** (``on_unconditional``): each executed UB hashes the most
  recent W UBs into a prefetch context ID; if the context directory has a
  pattern set for it, the set is transferred into the PB, becoming usable
  ``access_latency`` cycles later.  The D-UB skip in context formation is
  what gives the transfer time to complete.
* **Predict**: the active context's pattern set (if staged and arrived)
  is matched with TAGE's partial pattern matching; LLBP overrides the
  baseline only when its matching pattern's history is at least as long
  as TAGE's provider.  With the design tweaks enabled, the SC is
  suppressed whenever LLBP provides.
* **Update/allocate**: the providing pattern trains; a misprediction
  allocates a pattern with the next-longer active history length into the
  current context's set, evicting the least-confident pattern on
  conflict.  Dirty sets write back to the store on PB eviction.

Limit-study configuration switches (Fig 5) are honoured here: zero
latency turns prefetching into on-demand fills, ``infinite_patterns``
unbounds the sets, ``infinite_contexts`` unbounds the directory, and
``no_contextualization`` keys pattern sets by branch PC.

:meth:`LLBP.predict`/:meth:`LLBP.update`/:meth:`LLBP.on_unconditional`
are the test oracle.  The simulation kernels, :attr:`LLBP.step` and
:attr:`LLBP.ub_step`, are the LLBP lane tail
(:func:`repro.llbp.batched_state.build_llbp_tail`) over the TSL's
recorded TAGE+loop base stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.bitops import mix64
from repro.common.stats import StatGroup
from repro.llbp.batched_state import build_llbp_tail
from repro.llbp.config import LLBPConfig
from repro.llbp.pattern import Pattern, PatternSet, UsefulTracker, make_bucket_ranges
from repro.llbp.pattern_buffer import PatternBuffer, PBEntry
from repro.llbp.pattern_store import PatternStore
from repro.llbp.rcr import CONTEXT_KINDS, ContextStreams
from repro.tage.batched_state import SharedBase, StepFn, UBStepFn, instrumented
from repro.tage.config import HISTORY_LENGTHS, TageConfig, history_length_index
from repro.tage.streams import TraceTensors, build_tag_streams
from repro.tage.tsl import TSLPrediction, TageSCL


@dataclass
class LLBPPrediction:
    """Record of one combined LLBP + TSL prediction."""

    pred: bool
    tsl: TSLPrediction
    context_id: int  # -1 while the RCR is cold
    pattern: Optional[Pattern]
    pattern_set: Optional[PatternSet]
    pattern_pred: bool  # direction the pattern gave at predict time
    llbp_provider: bool  # LLBP's pattern won the length arbitration
    llbp_late: bool  # the context's set was still in flight


class LLBP:
    """The original LLBP design over an unmodified TAGE-SC-L."""

    def __init__(
        self,
        config: LLBPConfig,
        tage_config: TageConfig,
        tensors: TraceTensors,
        context_streams: Optional[ContextStreams] = None,
        base: Optional[SharedBase] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        # ``base`` optionally passes a TAGE+loop base other lanes share
        self.tsl = TageSCL(tage_config, tensors, base=base)
        self.tensors = tensors
        self.stats = StatGroup(f"llbp[{config.name}]")
        self.contexts = context_streams if context_streams is not None else ContextStreams(tensors)

        # pattern tags for all 21 canonical lengths at LLBP's tag width
        self.tag_streams = build_tag_streams(
            tensors, HISTORY_LENGTHS, [config.pattern_tag_bits] * len(HISTORY_LENGTHS)
        )
        self._instr = tensors.instr_index.tolist()
        self._ub_prefix = self.contexts.ub_prefix
        self._window = self.contexts.window_hashes(config.context_depth) if not config.no_contextualization else []
        # per-record flag: does this UB update the rolling context register?
        # (bytes: 1 byte per record, indexes to plain ints)
        self._is_context_kind = bytes(np.isin(tensors.kinds, CONTEXT_KINDS).astype(np.uint8))
        self._ub_counter = self.stats.counter("unconditional_branches")

        self.store = PatternStore(
            num_contexts=config.effective_contexts,
            assoc=config.store_assoc,
            context_tag_bits=31 if config.infinite_contexts else config.context_tag_bits,
            infinite=config.infinite_contexts,
        )
        self.pattern_buffer = PatternBuffer(config.pattern_buffer_entries)
        self.tracker = UsefulTracker() if config.track_useful else None

        self._set_capacity = 0 if config.infinite_patterns or config.no_contextualization else config.patterns_per_set
        self._counter_bits = config.pattern_counter_bits
        self._direct: Dict[int, PatternSet] = {}  # no-contextualisation mode

        active = sorted(history_length_index(length) for length in config.history_lengths)
        self._active_indices = active
        self._bucket_ranges = (
            make_bucket_ranges(active, config.num_buckets, config.bucket_size)
            if config.use_bucketing and self._set_capacity > 0
            else None
        )
        self._step: Optional[StepFn] = None
        self._ub_step: Optional[UBStepFn] = None

    def _build_kernels(self) -> None:
        step, self._ub_step = build_llbp_tail(self, self.tsl.base)
        self._step = instrumented(self, step)

    @property
    def step(self) -> StepFn:
        """The simulation kernel ``step(t, pc, taken) -> mispredicted``.

        The LLBP tail over the TSL's base stream; the first use records
        the base over the whole trace unless a stream was recorded or
        adopted.
        """
        if self._step is None:
            self._build_kernels()
        return self._step

    @property
    def ub_step(self) -> UBStepFn:
        """The unconditional-record kernel ``simulate`` drives with :attr:`step`.

        ``ub_step(start, end)`` counts the run's UBs and, for prefetching
        designs, runs the prefetch path: the kernel counterpart of
        :meth:`on_unconditional`.
        """
        if self._step is None:
            self._build_kernels()
        return self._ub_step

    def telemetry_sample(self) -> Dict[str, float]:
        """Periodic sampler payload: PB health plus the base TAGE core.

        ``pb.hit_rate`` is the cumulative pattern-buffer hit rate at the
        sample point (hits over predictions so far), the in-flight view
        of the paper's Fig 10 steady-state number.
        """
        predictions = self.stats.get("predictions")
        sample = {
            "pb.occupancy": len(self.pattern_buffer) / self.pattern_buffer.capacity,
            "pb.hit_rate": self.stats.get("llbp_hits") / predictions if predictions else 0.0,
            "pb.provide_rate": (
                self.stats.get("llbp_provides") / predictions if predictions else 0.0
            ),
            "store.resident_sets": float(self.store.resident_sets()),
        }
        for key, value in self.tsl.tage.telemetry_sample().items():
            sample["tage.%s" % key] = value
        return sample

    # -- context handling ----------------------------------------------------------

    def _context_of(self, t: int, pc: int) -> int:
        if self.config.no_contextualization:
            return pc
        end = self._ub_prefix[t] - self.config.prefetch_distance - 1
        if end < 0:
            return -1
        return self._window[end]

    def _new_set(self, context_id: int) -> PatternSet:
        return PatternSet(
            capacity=self._set_capacity,
            counter_bits=self._counter_bits,
            bucket_ranges=self._bucket_ranges_for(context_id),
        )

    def _bucket_ranges_for(self, context_id: int) -> Optional[List[Tuple[int, int, int]]]:
        """Bucket layout for a context (LLBP-X varies this by depth)."""
        del context_id
        return self._bucket_ranges

    def _active_indices_for(self, context_id: int) -> List[int]:
        """Allocatable history-length indices (LLBP-X varies this by depth)."""
        del context_id
        return self._active_indices

    # -- pattern buffer plumbing ------------------------------------------------------

    def _handle_eviction(self, evicted: Optional[Tuple[int, PBEntry]]) -> None:
        if evicted is None:
            return
        context_id, entry = evicted
        self._account_prefetch(entry)
        if entry.pattern_set.dirty and len(entry.pattern_set.patterns):
            self.store.insert(context_id, entry.pattern_set)

    def _account_prefetch(self, entry: PBEntry) -> None:
        if not entry.from_prefetch:
            return
        if entry.false_path:
            self.stats.add("prefetch_false_path")
        if not entry.used:
            self.stats.add("prefetch_unused")
        elif entry.late:
            self.stats.add("prefetch_late")
        else:
            self.stats.add("prefetch_timely")

    def _fetch_into_pb(self, context_id: int, available_at: int, from_prefetch: bool, false_path: bool = False) -> Optional[PatternSet]:
        pattern_set = self.store.lookup(context_id)
        if pattern_set is None:
            return None
        evicted = self.pattern_buffer.insert(
            context_id, pattern_set, available_at, from_prefetch, false_path
        )
        self._handle_eviction(evicted)
        return pattern_set

    def _get_or_create_set(self, t: int, context_id: int) -> PatternSet:
        """Locate the context's pattern set for an update, creating if needed."""
        if self.config.no_contextualization:
            pattern_set = self._direct.get(context_id)
            if pattern_set is None:
                pattern_set = self._new_set(context_id)
                self._direct[context_id] = pattern_set
                self.stats.add("set_creations")
            return pattern_set
        entry = self.pattern_buffer.peek(context_id)
        if entry is not None:
            return entry.pattern_set
        now = self._instr[t]
        fetched = self._fetch_into_pb(context_id, now + self.config.effective_latency, from_prefetch=False)
        if fetched is not None:
            return fetched
        pattern_set = self._new_set(context_id)
        evicted = self.pattern_buffer.insert(context_id, pattern_set, now, from_prefetch=False)
        self._handle_eviction(evicted)
        self.stats.add("set_creations")
        return pattern_set

    # -- prefetching ------------------------------------------------------------------

    def on_unconditional(self, t: int, pc: int, target: int) -> None:
        self._ub_counter.value += 1
        if self.config.no_contextualization or self.config.zero_latency:
            return  # on-demand operation; no prefetch pipeline
        if not self._is_context_kind[t]:
            return  # plain jumps do not update the rolling context register
        ub_index = self._ub_prefix[t]  # this UB's own index
        self._prefetch_context(t, self._prefetch_id(ub_index))

    def _prefetch_id(self, ub_index: int) -> int:
        """Context that becomes active D UBs after ``ub_index`` executes."""
        return self._window[ub_index]

    def _prefetch_context(self, t: int, context_id: int, false_path: bool = False) -> None:
        if context_id in self.pattern_buffer:
            self.stats.add("prefetch_pb_hit")
            return
        if not self.store.contains(context_id):
            self.stats.add("prefetch_no_context")
            return
        now = self._instr[t]
        fetched = self._fetch_into_pb(
            context_id, now + self.config.effective_latency, from_prefetch=True, false_path=false_path
        )
        if fetched is not None:
            self.stats.add("prefetches_issued")

    # -- prediction ----------------------------------------------------------------------

    def _lookup_pattern(self, t: int, context_id: int) -> Tuple[Optional[Pattern], Optional[PatternSet], bool]:
        """(pattern, set, late) for the active context at record ``t``."""
        if context_id == -1:
            return None, None, False
        if self.config.no_contextualization:
            pattern_set = self._direct.get(context_id)
            late = False
        else:
            now = self._instr[t]
            pattern_set, late = self.pattern_buffer.get(context_id, now)
            if pattern_set is None and not late and self.config.zero_latency:
                pattern_set = self._fetch_into_pb(context_id, now, from_prefetch=False)
        if pattern_set is None:
            return None, None, late
        pattern = pattern_set.lookup(t, self.tag_streams, self._active_indices)
        return pattern, pattern_set, late

    def predict(self, t: int, pc: int) -> LLBPPrediction:
        tsl_prediction = self.tsl.base_predict(t, pc)
        context_id = self._context_of(t, pc)
        pattern, pattern_set, late = self._lookup_pattern(t, context_id)

        llbp_provider = False
        pred = tsl_prediction.pred
        pattern_pred = False
        if pattern is not None:
            self.stats.add("llbp_hits")
            pattern_pred = pattern.pred
            pattern_length = HISTORY_LENGTHS[pattern.length_index]
            loop_valid = tsl_prediction.loop is not None and tsl_prediction.loop.valid
            if pattern_length >= tsl_prediction.tage.provider_length and not loop_valid:
                llbp_provider = True
                pred = pattern_pred
                self.stats.add("llbp_provides")

        prediction = LLBPPrediction(
            pred=pred,
            tsl=tsl_prediction,
            context_id=context_id,
            pattern=pattern,
            pattern_set=pattern_set,
            pattern_pred=pattern_pred,
            llbp_provider=llbp_provider,
            llbp_late=late,
        )

        # Statistical corrector: always evaluated (so it keeps training),
        # but its override is suppressed when LLBP provides with a
        # high-confidence pattern (the §II-C.4 tweak; low-confidence
        # patterns still accept the SC's correction).
        conf = pattern.confidence() if llbp_provider and pattern else tsl_prediction.tage.confidence
        sc_pred = self.tsl.apply_sc(t, pc, tsl_prediction, pred, conf)
        suppress = (
            self.config.suppress_sc
            and llbp_provider
            and pattern is not None
            and pattern_set is not None
            and pattern.is_confident(pattern_set.ctr_max)
        )
        if not suppress:
            prediction.pred = sc_pred
        return prediction

    # -- update --------------------------------------------------------------------------

    def update(self, t: int, pc: int, taken: bool, prediction: LLBPPrediction) -> None:
        self.stats.add("predictions")
        mispredicted = prediction.pred != taken
        if mispredicted:
            self.stats.add("mispredictions")

        self.tsl.update_sc(t, pc, taken, prediction.tsl)
        self.tsl.base_update(t, pc, taken, prediction.tsl)

        pattern = prediction.pattern
        if pattern is not None and prediction.llbp_provider:
            useful = prediction.pattern_pred == taken and prediction.tsl.pred != taken
            if useful:
                self.stats.add("llbp_useful")
                if self.tracker is not None:
                    self.tracker.record(prediction.context_id, pattern)
            pattern.update(taken, prediction.pattern_set.ctr_max, prediction.pattern_set.ctr_min)
            prediction.pattern_set.dirty = True

        if mispredicted and prediction.context_id != -1:
            self._allocate(t, taken, prediction)
        if mispredicted and self.config.model_false_path:
            # The wrong path ran ahead and issued prefetches before this
            # branch resolved; with flushing enabled they are discarded at
            # resolve time (the "without false path" variant of Fig 14a).
            self.on_false_path(t)
            if self.config.flush_false_path:
                self._flush_false_path()
        # overriding-scheme accounting (Fig 14b): the fast first-cycle
        # prediction is the PB's pattern (when providing) or the bimodal
        fast = prediction.pattern_pred if prediction.llbp_provider else prediction.tsl.tage.bim_pred
        if prediction.pred != fast:
            self.stats.add("fast_path_overrides")

    def _choose_allocation_index(self, context_id: int, provider_index: int) -> Tuple[int, int]:
        """(storable index, attempted index) for a new pattern allocation.

        The *attempted* index is the next canonical history length above
        the incorrect provider (what TAGE-style allocation wants); the
        storable index is where this design actually puts it, or -1 when
        the allocation must be dropped.  Base LLBP rounds the attempt up
        to its nearest kept length; LLBP-X overrides this to drop
        attempts outside the context's active range (§V-C).
        """
        attempted = provider_index + 1
        if attempted >= len(HISTORY_LENGTHS):
            return -1, -1
        for index in self._active_indices_for(context_id):
            if index >= attempted:
                return index, attempted
        return -1, attempted

    def _allocate(self, t: int, taken: bool, prediction: LLBPPrediction) -> None:
        """Allocate a pattern with a longer history than the incorrect one."""
        self._allocate_scalar(
            t,
            taken,
            prediction.context_id,
            prediction.llbp_provider,
            prediction.pattern,
            prediction.tsl.tage.provider_table,
            prediction.tsl.tage.provider_length,
        )

    def _allocate_scalar(
        self,
        t: int,
        taken: bool,
        context_id: int,
        llbp_provider: bool,
        pattern: Optional[Pattern],
        provider_table: int,
        provider_length: int,
    ) -> None:
        """Allocation body over plain scalars (shared with the lane tail)."""
        if llbp_provider and pattern is not None:
            provider_index = pattern.length_index
        elif provider_table >= 0:
            provider_index = history_length_index(provider_length)
        else:
            provider_index = -1

        target_index, attempted_index = self._choose_allocation_index(context_id, provider_index)
        if attempted_index < 0:
            return  # provider already at the longest history
        allocated: Optional[Pattern] = None
        pattern_set: Optional[PatternSet] = None
        if target_index >= 0:
            pattern_set = self._get_or_create_set(t, context_id)
            tag = self.tag_streams[target_index][t]
            allocated = pattern_set.allocate(target_index, tag, taken)
        else:
            # Dropped (outside the active history range) -- but the attempt
            # still feeds depth adaptation (paper §V-C).
            entry = self.pattern_buffer.peek(context_id)
            pattern_set = entry.pattern_set if entry is not None else None
        if allocated is not None:
            self.stats.add("pattern_allocations")
        else:
            self.stats.add("allocations_dropped")
        self._on_allocation(t, context_id, pattern_set, attempted_index, allocated)

    def _on_allocation(
        self,
        t: int,
        context_id: int,
        pattern_set: Optional[PatternSet],
        length_index: int,
        allocated: Optional[Pattern],
    ) -> None:
        """Hook for LLBP-X's context tracking table; no-op in base LLBP."""

    # -- teardown / reporting ------------------------------------------------------------

    def finalize(self) -> None:
        """Flush the pattern buffer (writebacks) and settle prefetch stats."""
        for context_id, entry in self.pattern_buffer.drain():
            self._account_prefetch(entry)
            if entry.pattern_set.dirty and len(entry.pattern_set.patterns):
                self.store.insert(context_id, entry.pattern_set)

    def collect_extra(self) -> Dict[str, float]:
        """Per-run derived metrics consumed by the metrics/experiments layers."""
        self.finalize()
        store_stats = self.store.stats.as_dict()
        return {
            "store_reads": float(store_stats.get("lookups", 0)),
            "store_writes": float(store_stats.get("writes", 0)),
            "store_evictions": float(store_stats.get("evictions", 0)),
            "resident_sets": float(self.store.resident_sets()),
            "pb_late_hits": float(self.pattern_buffer.stats.get("late_hits")),
        }

    def _flush_false_path(self) -> None:
        """Drop wrong-path-prefetched sets from the PB (Fig 14a's variant).

        Flushed prefetches are *not* accounted in the timely/late/unused
        classification: the "without false path" variant models a frontend
        that never lets them take effect.
        """
        stale = [cid for cid, entry in self.pattern_buffer.items() if entry.false_path]
        for cid in stale:
            self.pattern_buffer._entries.pop(cid, None)
            self.stats.add("false_path_flushed")

    def on_false_path(self, t: int) -> None:
        """Model wrong-path prefetches after a misprediction (Fig 14a).

        The wrong path runs ahead for a few fetch cycles and issues
        prefetches of *real* contexts (it executes real code): half the
        time a reconvergent target a few UBs ahead of the correct path
        (potentially useful later), otherwise an arbitrary stored context
        (pure pollution).
        """
        if self.config.no_contextualization or self.config.zero_latency:
            return
        coin = mix64(t)
        ub_index = self._ub_prefix[t]
        lookahead = 2 + (coin >> 8) % 3
        # wrong paths reconverge often: most bogus prefetches target a
        # context the correct path will also reach shortly
        if coin % 10 < 7 and ub_index + lookahead < len(self._window):
            target = self._window[ub_index + lookahead]
        else:
            sampled = self.store.sample_context(coin >> 16)
            if sampled is None:
                return
            target = sampled
        self.stats.add("false_path_issued")
        self._prefetch_context(t, target, false_path=True)

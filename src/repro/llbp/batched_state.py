"""The LLBP-family lane tail: the one per-branch kernel of LLBP and LLBP-X.

:func:`build_llbp_tail` is the LLBP counterpart of
:meth:`repro.tage.batched_state.SharedBase.build_tsl_tail`: per branch it
decodes the base's recorded word (TAGE direction, confidence and
provider, bimodal direction, loop override -- freshly recorded or adopted
from a persisted stream; the tail cannot tell the difference) and runs
everything downstream of the base: context lookup, pattern buffer /
store, arbitration, statistical corrector (with suppression), allocation,
false-path modeling and stats, in the order of
:meth:`~repro.llbp.llbp.LLBP.predict` + :meth:`~repro.llbp.llbp.LLBP.update`.

Virtual hooks (``_context_of``, ``_choose_allocation_index``,
``_on_allocation``) are captured as bound methods, so LLBP-X lanes
(per-lane CTT feeding ``_context_of``) use this same tail unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tage.batched_state import (
    BASE_BIM_PRED,
    BASE_CONF_SHIFT,
    BASE_LOOP_VALID,
    BASE_PROVIDER_MASK,
    BASE_PROVIDER_SHIFT,
    BASE_TSL_PRED,
    SharedBase,
    StepFn,
)
from repro.tage.config import HISTORY_LENGTHS

if TYPE_CHECKING:
    from repro.llbp.llbp import LLBP


def build_llbp_tail(llbp: "LLBP", shared: SharedBase) -> StepFn:
    """Build the lane tail ``step(t, pc, taken) -> mispredicted`` for LLBP/LLBP-X.

    ``shared`` is the base ``llbp`` was built over (``llbp.tsl.base``);
    the tail trains the lane's own state and never the base core.
    """
    # ndarray.item returns a plain Python int -- numpy scalars must not
    # leak into pattern/context hashing, and plain-int bit ops are faster
    packed_word = shared.packed_stream().item
    lengths = shared.config.history_lengths

    config = llbp.config
    no_ctx = config.no_contextualization
    zero_latency = config.zero_latency
    suppress_sc = config.suppress_sc
    model_false_path = config.model_false_path
    flush_false_path = config.flush_false_path

    tsl = llbp.tsl
    sc_fused = tsl.sc.fused_step if tsl.sc is not None else None

    context_of = llbp._context_of  # virtual: LLBP-X overrides
    direct_get = llbp._direct.get
    pb_get = llbp.pattern_buffer.get
    fetch = llbp._fetch_into_pb
    instr = llbp._instr
    tag_streams = llbp.tag_streams
    active_indices = llbp._active_indices
    hist_lengths = HISTORY_LENGTHS
    tracker = llbp.tracker
    allocate_for = llbp._allocate_scalar
    on_false_path = llbp.on_false_path
    flush = llbp._flush_false_path

    stats = llbp.stats
    predictions_counter = stats.counter("predictions")
    hits_counter = stats.counter("llbp_hits")
    provides_counter = stats.counter("llbp_provides")
    stats_add = stats.add

    def tail(t: int, pc: int, taken: bool) -> bool:
        # -- decode the shared base's recorded outputs for this branch
        word = packed_word(t)
        tsl_pred = (word & BASE_TSL_PRED) != 0
        loop_valid = (word & BASE_LOOP_VALID) != 0
        bim_pred = (word & BASE_BIM_PRED) != 0
        tage_conf = word >> BASE_CONF_SHIFT
        provider_table = ((word >> BASE_PROVIDER_SHIFT) & BASE_PROVIDER_MASK) - 1
        provider_length = lengths[provider_table] if provider_table >= 0 else 0

        # -- context + pattern lookup
        pattern = None
        pattern_set = None
        if no_ctx:
            cid = pc
            pattern_set = direct_get(cid)
        else:
            cid = context_of(t, pc)
            if cid != -1:
                now = instr[t]
                pattern_set, late = pb_get(cid, now)
                if pattern_set is None and not late and zero_latency:
                    pattern_set = fetch(cid, now, False)
        if pattern_set is not None:
            pattern = pattern_set.lookup(t, tag_streams, active_indices)

        # -- arbitration: longest history wins; loop beats LLBP
        llbp_provider = False
        pred = tsl_pred
        pattern_pred = False
        if pattern is not None:
            hits_counter.value += 1
            pattern_pred = pattern.ctr >= 0
            if hist_lengths[pattern.length_index] >= provider_length and not loop_valid:
                llbp_provider = True
                pred = pattern_pred
                provides_counter.value += 1

        # -- statistical corrector (fused evaluate+train); suppression
        # uses the pattern's pre-update counter, so compute it first
        if sc_fused is not None:
            if llbp_provider:
                ctr = pattern.ctr
                conf = ctr if ctr >= 0 else -ctr - 1
                ctr_max = pattern_set.ctr_max
                suppress = suppress_sc and (ctr >= ctr_max - 1 or ctr <= -ctr_max)
            else:
                conf = tage_conf
                suppress = False
            sc_pred = sc_fused(t, pc, pred, conf, taken)
            final = pred if suppress else sc_pred
        else:
            final = pred

        # -- update (TAGE + loop already trained by the shared base)
        predictions_counter.value += 1
        mispredicted = final != taken
        if mispredicted:
            stats_add("mispredictions")
        if llbp_provider:
            if pattern_pred == taken and tsl_pred != taken:
                stats_add("llbp_useful")
                if tracker is not None:
                    tracker.record(cid, pattern)
            pattern.update(taken, pattern_set.ctr_max, pattern_set.ctr_min)
            pattern_set.dirty = True
        if mispredicted:
            if cid != -1:
                allocate_for(
                    t, taken, cid, llbp_provider, pattern, provider_table, provider_length
                )
            if model_false_path:
                on_false_path(t)
                if flush_false_path:
                    flush()
        fast = pattern_pred if llbp_provider else bim_pred
        if final != fast:
            stats_add("fast_path_overrides")
        return mispredicted

    return tail

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

The builder specialises each lane once, on its design, so the per-branch
work runs as straight-line code rather than through nested method calls:

* **Depth selection.**  LLBP reads its window's context IDs.  LLBP-X
  reads the bundle's shared shallow and deep ID lists
  (:meth:`~repro.llbp.rcr.ContextStreams.context_ids`) and probes its CTT
  inline -- refreshing the probed entry's LRU position, exactly as
  :meth:`~repro.llbp.ctt.ContextTrackingTable.lookup` does.  Opt-W lanes
  read their oracle depths instead.
* **Pattern buffer and patterns.**  The PB read (``late``/``used`` flags,
  LRU move, ``late_hits``), the longest-match lookup over the set and the
  providing pattern's counter update run inline.
* **Allocation.**  LLBP-X's preamble -- the provider's canonical index,
  the active-range test, the dropped attempt, and the CTT feedback --
  runs inline around the calls that stay calls
  (``_get_or_create_set``, :meth:`~repro.llbp.pattern.PatternSet.allocate`,
  ``ctt.track``, ``ctt.observe_allocation``).  LLBP lanes allocate
  through ``_allocate_scalar``.

The builder also returns the lane's unconditional-record kernel, which
``simulate`` drives alongside ``step``: it counts UBs and, for prefetching
designs, runs the prefetch path with the same inline depth selection.

Counters that the oracle creates on their first increment are created on
their first increment here too: a counter created up front would add a
zero-valued key to the result's stats, and so change its digest.

``predict``/``update``/``on_unconditional`` and the helpers they call
stay the oracle (``tests/test_step_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.tage.batched_state import (
    BASE_BIM_PRED,
    BASE_CONF_SHIFT,
    BASE_LOOP_VALID,
    BASE_PROVIDER_MASK,
    BASE_PROVIDER_SHIFT,
    BASE_TSL_PRED,
    SharedBase,
    StepFn,
    UBStepFn,
)
from repro.tage.config import HISTORY_LENGTHS, history_length_index

if TYPE_CHECKING:
    from repro.llbp.llbp import LLBP


def build_llbp_tail(llbp: "LLBP", shared: SharedBase) -> Tuple[StepFn, UBStepFn]:
    """Build the lane kernels ``(step, ub_step)`` for LLBP/LLBP-X.

    ``step(t, pc, taken) -> mispredicted`` runs one conditional record;
    ``ub_step(start, end)`` runs one run of unconditional records.
    ``shared`` is the base ``llbp`` was built over (``llbp.tsl.base``);
    the kernels train the lane's own state and never the base core.
    """
    from repro.llbp.llbpx import LLBPX  # llbpx imports llbp, which imports this module

    words = shared.words()
    # provider field (provider table + 1; 0 = the bimodal) -> history length
    provider_lengths = [0] * (BASE_PROVIDER_MASK + 1)
    for table, length in enumerate(shared.config.history_lengths):
        provider_lengths[table + 1] = length

    config = llbp.config
    no_ctx = config.no_contextualization
    zero_latency = config.zero_latency
    suppress_sc = config.suppress_sc
    model_false_path = config.model_false_path
    flush_false_path = config.flush_false_path
    distance = config.prefetch_distance + 1
    latency = config.effective_latency

    tsl = llbp.tsl
    sc_fused = tsl.sc.fused_step if tsl.sc is not None else None

    direct_get = llbp._direct.get
    pb_entries = llbp.pattern_buffer._entries
    pb_move_to_end = pb_entries.move_to_end
    pb_stats = llbp.pattern_buffer.stats
    fetch = llbp._fetch_into_pb
    store_contains = llbp.store.contains
    instr = llbp._instr
    ub_prefix = llbp._ub_prefix
    is_context_kind = llbp._is_context_kind
    tag_streams = llbp.tag_streams
    hist_lengths = HISTORY_LENGTHS
    num_lengths = len(HISTORY_LENGTHS)
    tracker = llbp.tracker
    allocate_for = llbp._allocate_scalar
    get_or_create = llbp._get_or_create_set
    on_false_path = llbp.on_false_path
    flush = llbp._flush_false_path

    # -- depth selection: LLBP's window, or LLBP-X's shallow/deep IDs
    # chosen by the CTT (ctt_sets) or by Opt-W's oracle (oracle_get)
    window = llbp._window
    llbpx_contexts = isinstance(llbp, LLBPX)  # LLBPXConfig rejects no_contextualization
    ctt_sets = None
    oracle_get = None
    if llbpx_contexts:
        window = None
        shallow_ids = llbp.contexts.context_ids(config.shallow_depth, deep=False)
        deep_ids = llbp.contexts.context_ids(config.deep_depth, deep=True)
        shallow_lo, shallow_hi = llbp._shallow_indices[0], llbp._shallow_indices[-1]
        deep_lo, deep_hi = llbp._deep_indices[0], llbp._deep_indices[-1]
        # provider field -> canonical length index (-1 for the bimodal)
        provider_indices = [-1] * (BASE_PROVIDER_MASK + 1)
        for table, length in enumerate(shared.config.history_lengths):
            provider_indices[table + 1] = history_length_index(length)
        if llbp._oracle is not None:
            oracle_get = llbp._oracle.get
        else:
            ctt = llbp.ctt
            ctt_sets = ctt._sets
            ctt_num_sets = ctt.num_sets
            ctt_tag_mask = ctt.tag_mask
            ctt_track = ctt.track
            observe = ctt.observe_allocation
            overflow_threshold = config.overflow_threshold
            history_threshold = config.history_threshold
            hist_counter_step = config.hist_counter_step
            deep_history_add = llbp.deep_history.add

    stats = llbp.stats
    counter = stats.counter
    predictions_counter = counter("predictions")
    hits_counter = counter("llbp_hits")
    provides_counter = counter("llbp_provides")
    # created on first increment (see the module docstring)
    mispredictions = fast_path_overrides = llbp_useful = late_hits = None
    pattern_allocations = allocations_dropped = None
    overflow_signals = to_deep = to_shallow = None

    def tail(t: int, pc: int, taken: bool) -> bool:
        nonlocal mispredictions, fast_path_overrides, llbp_useful, late_hits
        nonlocal pattern_allocations, allocations_dropped
        nonlocal overflow_signals, to_deep, to_shallow
        # -- decode the shared base's recorded outputs for this branch
        word = words[t]
        tsl_pred = (word & BASE_TSL_PRED) != 0
        field = (word >> BASE_PROVIDER_SHIFT) & BASE_PROVIDER_MASK

        # -- context, pattern buffer, longest matching pattern
        pattern_set = None
        if no_ctx:
            cid = pc
            pattern_set = direct_get(pc)
        else:
            end = ub_prefix[t] - distance
            if end < 0:
                cid = -1
            else:
                if window is not None:
                    cid = window[end]
                else:
                    shallow_id = shallow_ids[end]
                    if ctt_sets is not None:
                        deep = False
                        ways = ctt_sets.get(shallow_id % ctt_num_sets)
                        if ways is not None:
                            tag = (shallow_id // ctt_num_sets) & ctt_tag_mask
                            tracked = ways.get(tag)
                            if tracked is not None:
                                ways.move_to_end(tag)
                                deep = tracked.deep
                    else:
                        deep = oracle_get(shallow_id, False)
                    cid = deep_ids[end] if deep else shallow_id
                now = instr[t]
                staged = pb_entries.get(cid)
                if staged is None:
                    if zero_latency:
                        pattern_set = fetch(cid, now, False)
                elif staged.available_at > now:
                    staged.late = True
                    if late_hits is None:
                        late_hits = pb_stats.counter("late_hits")
                    late_hits.value += 1
                else:
                    staged.used = True
                    pb_move_to_end(cid)
                    pattern_set = staged.pattern_set
        pattern = None
        if pattern_set is not None:
            best = -1
            for candidate in pattern_set.patterns:
                index = candidate.length_index
                if index > best and tag_streams[index][t] == candidate.tag:
                    pattern = candidate
                    best = index

        # -- arbitration: longest history wins; loop beats LLBP
        llbp_provider = False
        pred = tsl_pred
        pattern_pred = False
        if pattern is not None:
            hits_counter.value += 1
            ctr = pattern.ctr
            pattern_pred = ctr >= 0
            if hist_lengths[best] >= provider_lengths[field] and not word & BASE_LOOP_VALID:
                llbp_provider = True
                pred = pattern_pred
                provides_counter.value += 1

        # -- statistical corrector (fused evaluate+train); suppression
        # uses the pattern's pre-update counter
        if sc_fused is not None:
            if llbp_provider:
                final = sc_fused(t, pc, pred, ctr if ctr >= 0 else -ctr - 1, taken)
                ctr_max = pattern_set.ctr_max
                if suppress_sc and (ctr >= ctr_max - 1 or ctr <= -ctr_max):
                    final = pred
            else:
                final = sc_fused(t, pc, pred, word >> BASE_CONF_SHIFT, taken)
        else:
            final = pred

        # -- update (TAGE + loop already trained by the shared base)
        predictions_counter.value += 1
        mispredicted = final != taken
        if mispredicted:
            if mispredictions is None:
                mispredictions = counter("mispredictions")
            mispredictions.value += 1
        if llbp_provider:
            if pattern_pred == taken and tsl_pred != taken:
                if llbp_useful is None:
                    llbp_useful = counter("llbp_useful")
                llbp_useful.value += 1
                if tracker is not None:
                    tracker.record(cid, pattern)
            if taken:
                if ctr < pattern_set.ctr_max:
                    pattern.ctr = ctr + 1
            elif ctr > pattern_set.ctr_min:
                pattern.ctr = ctr - 1
            pattern_set.dirty = True
        if mispredicted and cid != -1:
            if not llbpx_contexts:
                allocate_for(
                    t, taken, cid, llbp_provider, pattern, field - 1, provider_lengths[field]
                )
            else:
                # LLBP-X attempts the next length above the provider
                # and drops attempts outside the depth's range (§V-C)
                attempted = (best if llbp_provider else provider_indices[field]) + 1
                if attempted < num_lengths:
                    if deep:
                        in_range = deep_lo <= attempted <= deep_hi
                    else:
                        in_range = shallow_lo <= attempted <= shallow_hi
                    allocated = None
                    if in_range:
                        alloc_set = get_or_create(t, cid)
                        allocated = alloc_set.allocate(attempted, tag_streams[attempted][t], taken)
                    else:
                        staged = pb_entries.get(cid)
                        alloc_set = staged.pattern_set if staged is not None else None
                    if allocated is not None:
                        if pattern_allocations is None:
                            pattern_allocations = counter("pattern_allocations")
                        pattern_allocations.value += 1
                    else:
                        if allocations_dropped is None:
                            allocations_dropped = counter("allocations_dropped")
                        allocations_dropped.value += 1
                    if ctt_sets is not None:
                        # CTT feedback: the overflow signal, then the
                        # attempt's length drives avg-hist-len
                        if (
                            alloc_set is not None
                            and len(alloc_set.patterns) >= overflow_threshold
                        ):
                            ctt_track(shallow_id)
                            if overflow_signals is None:
                                overflow_signals = counter("ctt_overflow_signals")
                            overflow_signals.value += 1
                        transition = observe(
                            shallow_id,
                            hist_lengths[attempted],
                            history_threshold,
                            hist_counter_step,
                        )
                        if transition is True:
                            deep_history_add(shallow_id)
                            if to_deep is None:
                                to_deep = counter("depth_to_deep")
                            to_deep.value += 1
                        elif transition is False:
                            if to_shallow is None:
                                to_shallow = counter("depth_to_shallow")
                            to_shallow.value += 1
        if mispredicted and model_false_path:
            on_false_path(t)
            if flush_false_path:
                flush()
        if final != (pattern_pred if llbp_provider else (word & BASE_BIM_PRED) != 0):
            if fast_path_overrides is None:
                fast_path_overrides = counter("fast_path_overrides")
            fast_path_overrides.value += 1
        return mispredicted

    ub_counter = llbp._ub_counter
    if no_ctx or zero_latency:

        def count_ubs(start: int, end: int) -> None:
            ub_counter.value += end - start  # on-demand operation: no prefetch pipeline

        return tail, count_ubs

    pb_hits = no_context = issued = None

    def prefetch(start: int, end: int) -> None:
        nonlocal pb_hits, no_context, issued
        ub_counter.value += end - start
        for t in range(start, end):
            if not is_context_kind[t]:
                continue  # plain jumps do not update the rolling context register
            # the context that becomes active D UBs after this one
            ub_index = ub_prefix[t]
            if window is not None:
                cid = window[ub_index]
            else:
                shallow_id = shallow_ids[ub_index]
                if ctt_sets is not None:
                    deep = False
                    ways = ctt_sets.get(shallow_id % ctt_num_sets)
                    if ways is not None:
                        tag = (shallow_id // ctt_num_sets) & ctt_tag_mask
                        tracked = ways.get(tag)
                        if tracked is not None:
                            ways.move_to_end(tag)
                            deep = tracked.deep
                else:
                    deep = oracle_get(shallow_id, False)
                cid = deep_ids[ub_index] if deep else shallow_id
            if cid in pb_entries:
                if pb_hits is None:
                    pb_hits = counter("prefetch_pb_hit")
                pb_hits.value += 1
            elif not store_contains(cid):
                if no_context is None:
                    no_context = counter("prefetch_no_context")
                no_context.value += 1
            elif fetch(cid, instr[t] + latency, True) is not None:
                if issued is None:
                    issued = counter("prefetches_issued")
                issued.value += 1

    return tail, prefetch

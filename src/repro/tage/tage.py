"""The tagged-geometric (TAGE) core: bimodal base plus tagged tables.

This is a faithful software model of the TAGE component of TAGE-SC-L
[Seznec, CBP-5]: partial tag matching over tables with geometrically
increasing history lengths, longest-match provider selection,
use-alt-on-newly-allocated arbitration, useful-bit guided allocation with
tick-based decay.

The model is *stream-bound*: it is constructed against a
:class:`~repro.tage.streams.TraceTensors` and reads precomputed per-table
index/tag streams instead of hashing at prediction time (see
``streams.py`` for why this is equivalent).  The ``infinite`` mode
implements the paper's Inf-TSL: unlimited associativity with PC tagging,
i.e. a dictionary keyed ``(pc, index, tag)`` per table, which removes
both capacity misses and aliasing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.common.bitops import mix64
from repro.common.stats import StatGroup
from repro.tage.config import TageConfig
from repro.tage.streams import (
    TraceTensors,
    build_bimodal_stream,
    build_index_streams,
    build_tag_streams,
)

#: sentinel tag meaning "empty entry"
_EMPTY = -1


@dataclass
class TagePrediction:
    """Everything downstream consumers need to know about a TAGE lookup."""

    pred: bool  # effective TAGE prediction (after alt arbitration)
    provider_table: int  # -1 = bimodal
    provider_length: int  # history length of the provider (0 for bimodal)
    provider_ctr: int  # signed counter value of the provider
    provider_weak: bool
    provider_new: bool  # provider looks newly allocated
    alt_pred: bool
    alt_table: int
    longest_pred: bool  # prediction of the longest matching entry
    provider_index: int
    alt_index: int
    bim_pred: bool = True  # the bimodal base's direction (overriding model)

    @property
    def confidence(self) -> int:
        ctr = self.provider_ctr
        return ctr if ctr >= 0 else -ctr - 1


class TageCore:
    """Bimodal + tagged tables with Seznec-style update and allocation."""

    def __init__(self, config: TageConfig, tensors: TraceTensors) -> None:
        self.config = config
        self.tensors = tensors
        self.stats = StatGroup(f"tage[{config.name}]")
        lengths = list(config.history_lengths)
        self.lengths = lengths
        n = len(lengths)
        entry_bits = max(2, (config.entries_per_table - 1).bit_length())
        self._index_bits = [entry_bits] * n
        self._tag_bits = [config.tag_bits(i) for i in range(n)]
        self.idx_streams = build_index_streams(tensors, lengths, self._index_bits)
        self.tag_streams = build_tag_streams(tensors, lengths, self._tag_bits)

        entries = 1 << entry_bits
        self.entries_per_table = entries
        ctr_max = (1 << (config.counter_bits - 1)) - 1
        self._ctr_max = ctr_max
        self._ctr_min = -(ctr_max + 1)
        self._u_max = (1 << config.useful_bits) - 1

        if config.infinite:
            # (pc, idx, tag) -> [ctr, u]
            self._inf_tables: List[Dict[Tuple[int, int, int], List[int]]] = [dict() for _ in range(n)]
        else:
            self._tags = [array("l", [_EMPTY]) * entries for _ in range(n)]
            self._ctrs = [array("b", [0]) * entries for _ in range(n)]
            self._useful = [array("b", [0]) * entries for _ in range(n)]

        # Bimodal base: 2-bit counters, initialised weakly-taken-agnostic.
        bim_entries = config.bimodal_entries
        self._bim_mask = bim_entries - 1
        if bim_entries & self._bim_mask:
            raise ValueError(f"bimodal entries must be a power of two, got {bim_entries}")
        self._bimodal = array("b", [0]) * bim_entries
        # the base predictor reads its index stream like every tagged table
        self.bim_idx_stream = build_bimodal_stream(tensors, self._bim_mask)

        # use-alt-on-newly-allocated counter (4 bits, centred at 8)
        self._use_alt = 8
        # allocation throttle
        self._tick = 0
        self._tick_max = 1023
        self._alloc_rand = mix64(config.alloc_seed)

        #: fused lookup+train kernel; bit-identical to predict()+update()
        self.fused_step = self._build_fused_step()

    # -- helpers ---------------------------------------------------------------

    def _bim_index(self, pc: int) -> int:
        return (pc >> 2) & self._bim_mask

    def _bim_pred(self, pc: int) -> bool:
        return self._bimodal[self._bim_index(pc)] >= 0

    def _next_rand(self) -> int:
        self._alloc_rand = mix64(self._alloc_rand + 0x9E3779B97F4A7C15)
        return self._alloc_rand

    # -- prediction ---------------------------------------------------------------

    def predict(self, t: int, pc: int) -> TagePrediction:
        """Longest-match lookup with use-alt-on-NA arbitration."""
        provider = -1
        alt = -1
        provider_idx = -1
        alt_idx = -1
        if self.config.infinite:
            idxs = self.idx_streams
            tags = self.tag_streams
            tables = self._inf_tables
            for i in range(len(self.lengths) - 1, -1, -1):
                entry = tables[i].get((pc, idxs[i][t], tags[i][t]))
                if entry is not None:
                    if provider < 0:
                        provider = i
                        provider_idx = 0
                    else:
                        # prefer a trained entry as the alternate; skip
                        # one-visit junk that unbounded tables accumulate
                        if entry[0] not in (0, -1) or entry[1] > 0:
                            alt = i
                            alt_idx = 0
                            break
                        if alt < 0:
                            alt = i
                            alt_idx = 0
        else:
            tags_streams = self.tag_streams
            idx_streams = self.idx_streams
            table_tags = self._tags
            for i in range(len(self.lengths) - 1, -1, -1):
                idx = idx_streams[i][t]
                if table_tags[i][idx] == tags_streams[i][t]:
                    if provider < 0:
                        provider = i
                        provider_idx = idx
                    else:
                        alt = i
                        alt_idx = idx
                        break

        bim_ctr = self._bimodal[self.bim_idx_stream[t]]
        bim_pred = bim_ctr >= 0
        if provider < 0:
            return TagePrediction(
                pred=bim_pred, provider_table=-1, provider_length=0,
                provider_ctr=bim_ctr, provider_weak=False,
                provider_new=False, alt_pred=bim_pred, alt_table=-1,
                longest_pred=bim_pred, provider_index=-1, alt_index=-1,
                bim_pred=bim_pred,
            )

        ctr, useful = self._read(provider, t, pc, provider_idx)
        longest_pred = ctr >= 0
        weak = ctr in (0, -1)
        new = weak and useful == 0

        if alt >= 0:
            alt_ctr, _ = self._read(alt, t, pc, alt_idx)
            alt_pred = alt_ctr >= 0
        else:
            alt_pred = bim_pred

        use_alt = new and self._use_alt >= 8
        pred = alt_pred if use_alt else longest_pred
        return TagePrediction(
            pred=pred, provider_table=provider, provider_length=self.lengths[provider],
            provider_ctr=ctr, provider_weak=weak, provider_new=new,
            alt_pred=alt_pred, alt_table=alt, longest_pred=longest_pred,
            provider_index=provider_idx, alt_index=alt_idx,
            bim_pred=bim_pred,
        )

    def _read(self, table: int, t: int, pc: int, idx: int) -> Tuple[int, int]:
        if self.config.infinite:
            key = (pc, self.idx_streams[table][t], self.tag_streams[table][t])
            entry = self._inf_tables[table][key]
            return entry[0], entry[1]
        return self._ctrs[table][idx], self._useful[table][idx]

    def _write(self, table: int, t: int, pc: int, idx: int, ctr: int, useful: int) -> None:
        if self.config.infinite:
            key = (pc, self.idx_streams[table][t], self.tag_streams[table][t])
            self._inf_tables[table][key] = [ctr, useful]
        else:
            self._ctrs[table][idx] = ctr
            self._useful[table][idx] = useful

    # -- update ---------------------------------------------------------------

    def _update_ctr(self, ctr: int, taken: bool) -> int:
        if taken:
            return min(self._ctr_max, ctr + 1)
        return max(self._ctr_min, ctr - 1)

    def update(self, t: int, pc: int, taken: bool, pred: TagePrediction, allocate: bool = True) -> None:
        """Counter training, useful-bit management, and allocation."""
        mispredicted = pred.pred != taken

        if pred.provider_table >= 0:
            table, idx = pred.provider_table, pred.provider_index
            ctr, useful = self._read(table, t, pc, idx)
            new_ctr = self._update_ctr(ctr, taken)
            if pred.longest_pred != pred.alt_pred:
                if pred.longest_pred == taken:
                    useful = min(self._u_max, useful + 1)
                elif useful > 0:
                    useful -= 1
            self._write(table, t, pc, idx, new_ctr, useful)
            # use-alt-on-NA training: when provider was new and alt disagreed
            if pred.provider_new and pred.longest_pred != pred.alt_pred:
                if pred.alt_pred == taken:
                    self._use_alt = min(15, self._use_alt + 1)
                else:
                    self._use_alt = max(0, self._use_alt - 1)
            # train the alt/bimodal when the provider is weak
            if pred.provider_weak:
                if pred.alt_table >= 0:
                    alt_ctr, alt_u = self._read(pred.alt_table, t, pc, pred.alt_index)
                    self._write(pred.alt_table, t, pc, pred.alt_index, self._update_ctr(alt_ctr, taken), alt_u)
                else:
                    self._update_bimodal(self.bim_idx_stream[t], taken)
        else:
            self._update_bimodal(self.bim_idx_stream[t], taken)

        if allocate and mispredicted and pred.provider_table < len(self.lengths) - 1:
            self._allocate(t, pc, taken, pred.provider_table)
            self.stats.add("allocations")
        if mispredicted:
            self.stats.add("mispredictions")
        self.stats.add("updates")

    def _update_bimodal(self, idx: int, taken: bool) -> None:
        ctr = self._bimodal[idx]
        self._bimodal[idx] = min(1, ctr + 1) if taken else max(-2, ctr - 1)

    def _allocate(self, t: int, pc: int, taken: bool, provider_table: int) -> None:
        """Allocate entries in tables with longer history than the provider."""
        start = provider_table + 1
        # Seznec-style: sometimes skip ahead to spread allocations.
        if start < len(self.lengths) - 1 and self._next_rand() & 3 == 0:
            start += 1
        if self.config.infinite:
            # No capacity limit: allocate in the next free table.  A single
            # allocation per misprediction keeps unbounded tables from
            # filling with one-visit junk that would win longest-match.
            for i in range(start, len(self.lengths)):
                key = (pc, self.idx_streams[i][t], self.tag_streams[i][t])
                if key not in self._inf_tables[i]:
                    self._inf_tables[i][key] = [0 if taken else -1, 0]
                    return
            return

        budget = 2
        for i in range(start, len(self.lengths)):
            idx = self.idx_streams[i][t]
            if self._useful[i][idx] == 0:
                self._tags[i][idx] = self.tag_streams[i][t]
                self._ctrs[i][idx] = 0 if taken else -1
                self._useful[i][idx] = 0
                self._tick = max(0, self._tick - 1)
                budget -= 1
                if budget == 0:
                    return
            else:
                self._tick += 1
                if self._tick >= self._tick_max:
                    self._decay_useful()
                    self._tick = 0

    def _decay_useful(self) -> None:
        """Graceful aging of useful bits when allocations keep failing.

        Halving is vectorised: each table's ``array('b')`` is viewed as an
        int8 numpy array and shifted in place, so the 1023-failed-allocation
        stall costs O(tables) vector ops instead of O(tables x entries)
        Python iterations.
        """
        for useful in self._useful:
            view = np.frombuffer(useful, dtype=np.int8)
            np.right_shift(view, 1, out=view)
        self.stats.add("useful_decays")

    # -- fused hot path ----------------------------------------------------------

    def _build_fused_step(self) -> Callable[[int, int, bool], Tuple[bool, int, bool, int, int]]:
        """Specialise the per-branch kernel for this configuration.

        Returns ``fused(t, pc, taken) -> (pred, confidence, bim_pred,
        provider_table, provider_length)``: one call performs the complete
        lookup *and* training of the TAGE core.  All table/stream/stat
        lookups are hoisted into the closure, and the finite/infinite mode
        split is resolved here, at construction time, instead of per branch.
        The returned tuple carries what the base record pass
        (:meth:`repro.tage.batched_state.SharedBase.record`) packs for the
        lane tails.
        """
        lengths = self.lengths
        last = len(lengths) - 1
        idx_streams = self.idx_streams
        tag_streams = self.tag_streams
        bim_stream = self.bim_idx_stream
        bimodal = self._bimodal
        ctr_max = self._ctr_max
        ctr_min = self._ctr_min
        u_max = self._u_max
        stats = self.stats
        updates_counter = stats.counter("updates")
        stats_add = stats.add
        allocate = self._allocate

        if self.config.infinite:
            scan = tuple(
                (i, idx_streams[i], tag_streams[i], self._inf_tables[i])
                for i in range(last, -1, -1)
            )

            def fused(t: int, pc: int, taken: bool) -> Tuple[bool, int, bool, int, int]:
                provider = -1
                alt = -1
                p_entry = a_entry = None
                for i, idxs, tags, table in scan:
                    entry = table.get((pc, idxs[t], tags[t]))
                    if entry is not None:
                        if provider < 0:
                            provider = i
                            p_entry = entry
                        else:
                            e0 = entry[0]
                            if (e0 != 0 and e0 != -1) or entry[1] > 0:
                                alt = i
                                a_entry = entry
                                break
                            if alt < 0:
                                alt = i
                                a_entry = entry

                bidx = bim_stream[t]
                bim_ctr = bimodal[bidx]
                bim_pred = bim_ctr >= 0
                if provider < 0:
                    pred = bim_pred
                    if taken:
                        if bim_ctr < 1:
                            bimodal[bidx] = bim_ctr + 1
                    elif bim_ctr > -2:
                        bimodal[bidx] = bim_ctr - 1
                    if pred != taken:
                        allocate(t, pc, taken, -1)
                        stats_add("allocations")
                        stats_add("mispredictions")
                    updates_counter.value += 1
                    conf = bim_ctr if bim_ctr >= 0 else -bim_ctr - 1
                    return pred, conf, bim_pred, -1, 0

                ctr = p_entry[0]
                useful = p_entry[1]
                longest_pred = ctr >= 0
                weak = ctr == 0 or ctr == -1
                new = weak and useful == 0
                if alt >= 0:
                    alt_ctr = a_entry[0]
                    alt_pred = alt_ctr >= 0
                else:
                    alt_pred = bim_pred
                pred = alt_pred if (new and self._use_alt >= 8) else longest_pred
                conf = ctr if ctr >= 0 else -ctr - 1

                # -- train provider --
                if taken:
                    if ctr < ctr_max:
                        p_entry[0] = ctr + 1
                elif ctr > ctr_min:
                    p_entry[0] = ctr - 1
                if longest_pred != alt_pred:
                    if longest_pred == taken:
                        if useful < u_max:
                            p_entry[1] = useful + 1
                    elif useful > 0:
                        p_entry[1] = useful - 1
                    if new:
                        use_alt = self._use_alt
                        if alt_pred == taken:
                            if use_alt < 15:
                                self._use_alt = use_alt + 1
                        elif use_alt > 0:
                            self._use_alt = use_alt - 1
                if weak:
                    if alt >= 0:
                        if taken:
                            if alt_ctr < ctr_max:
                                a_entry[0] = alt_ctr + 1
                        elif alt_ctr > ctr_min:
                            a_entry[0] = alt_ctr - 1
                    else:
                        if taken:
                            if bim_ctr < 1:
                                bimodal[bidx] = bim_ctr + 1
                        elif bim_ctr > -2:
                            bimodal[bidx] = bim_ctr - 1

                if pred != taken:
                    if provider < last:
                        allocate(t, pc, taken, provider)
                        stats_add("allocations")
                    stats_add("mispredictions")
                updates_counter.value += 1
                return pred, conf, bim_pred, provider, lengths[provider]

            return fused

        scan = tuple(
            (i, idx_streams[i], tag_streams[i], self._tags[i], self._ctrs[i], self._useful[i])
            for i in range(last, -1, -1)
        )

        def fused(t: int, pc: int, taken: bool) -> Tuple[bool, int, bool, int, int]:
            provider = -1
            alt = -1
            provider_idx = alt_idx = -1
            p_ctrs = p_useful = a_ctrs = None
            for i, idxs, tags, table_tags, table_ctrs, table_useful in scan:
                idx = idxs[t]
                if table_tags[idx] == tags[t]:
                    if provider < 0:
                        provider = i
                        provider_idx = idx
                        p_ctrs = table_ctrs
                        p_useful = table_useful
                    else:
                        alt = i
                        alt_idx = idx
                        a_ctrs = table_ctrs
                        break

            bidx = bim_stream[t]
            bim_ctr = bimodal[bidx]
            bim_pred = bim_ctr >= 0
            if provider < 0:
                pred = bim_pred
                if taken:
                    if bim_ctr < 1:
                        bimodal[bidx] = bim_ctr + 1
                elif bim_ctr > -2:
                    bimodal[bidx] = bim_ctr - 1
                if pred != taken:
                    allocate(t, pc, taken, -1)
                    stats_add("allocations")
                    stats_add("mispredictions")
                updates_counter.value += 1
                conf = bim_ctr if bim_ctr >= 0 else -bim_ctr - 1
                return pred, conf, bim_pred, -1, 0

            ctr = p_ctrs[provider_idx]
            useful = p_useful[provider_idx]
            longest_pred = ctr >= 0
            weak = ctr == 0 or ctr == -1
            new = weak and useful == 0
            if alt >= 0:
                alt_ctr = a_ctrs[alt_idx]
                alt_pred = alt_ctr >= 0
            else:
                alt_pred = bim_pred
            pred = alt_pred if (new and self._use_alt >= 8) else longest_pred
            conf = ctr if ctr >= 0 else -ctr - 1

            # -- train provider --
            if taken:
                if ctr < ctr_max:
                    p_ctrs[provider_idx] = ctr + 1
            elif ctr > ctr_min:
                p_ctrs[provider_idx] = ctr - 1
            if longest_pred != alt_pred:
                if longest_pred == taken:
                    if useful < u_max:
                        p_useful[provider_idx] = useful + 1
                elif useful > 0:
                    p_useful[provider_idx] = useful - 1
                if new:
                    use_alt = self._use_alt
                    if alt_pred == taken:
                        if use_alt < 15:
                            self._use_alt = use_alt + 1
                    elif use_alt > 0:
                        self._use_alt = use_alt - 1
            if weak:
                if alt >= 0:
                    if taken:
                        if alt_ctr < ctr_max:
                            a_ctrs[alt_idx] = alt_ctr + 1
                    elif alt_ctr > ctr_min:
                        a_ctrs[alt_idx] = alt_ctr - 1
                else:
                    if taken:
                        if bim_ctr < 1:
                            bimodal[bidx] = bim_ctr + 1
                    elif bim_ctr > -2:
                        bimodal[bidx] = bim_ctr - 1

            if pred != taken:
                if provider < last:
                    allocate(t, pc, taken, provider)
                    stats_add("allocations")
                stats_add("mispredictions")
            updates_counter.value += 1
            return pred, conf, bim_pred, provider, lengths[provider]

        return fused

    # -- introspection ---------------------------------------------------------

    def occupancy(self) -> float:
        """Fraction of tagged entries currently valid (diagnostics/tests).

        Only meaningful for finite tables; infinite mode has no capacity to
        be a fraction of -- use :meth:`entry_count` there.
        """
        if self.config.infinite:
            raise ValueError("infinite mode has no capacity; use entry_count()")
        return self.entry_count() / (len(self._tags) * self.entries_per_table)

    def entry_count(self) -> int:
        """Number of valid tagged entries across all tables (both modes)."""
        if self.config.infinite:
            return sum(len(table) for table in self._inf_tables)
        return sum(1 for tags in self._tags for tag in tags if tag != _EMPTY)

    def telemetry_sample(self) -> Dict[str, float]:
        """Point-in-time internals snapshot for the obs sampler.

        Finite mode reports table occupancy and the fraction of valid
        entries whose useful counter is saturated (the signal the paper's
        §V tuning discussion reads); infinite mode has no capacity, so it
        reports the raw entry count instead.  Runs per sampling interval
        (never per branch), so numpy full-table scans are fine.
        """
        sample: Dict[str, float] = {"use_alt": float(self._use_alt)}
        if self.config.infinite:
            sample["entries"] = float(self.entry_count())
            return sample
        valid_total = 0
        saturated = 0
        for tags, useful in zip(self._tags, self._useful):
            tag_arr = np.frombuffer(tags, dtype="i%d" % tags.itemsize)
            useful_arr = np.frombuffer(useful, dtype=np.int8)
            valid = tag_arr != _EMPTY
            valid_total += int(valid.sum())
            saturated += int((useful_arr[valid] >= self._u_max).sum())
        capacity = len(self._tags) * self.entries_per_table
        sample["occupancy"] = valid_total / capacity if capacity else 0.0
        sample["useful_saturation"] = saturated / valid_total if valid_total else 0.0
        return sample

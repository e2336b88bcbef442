"""The statistical corrector (SC) component of TAGE-SC-L.

TAGE occasionally insists on a pattern-based prediction for branches that
are merely statistically biased; the SC is a small GEHL-style perceptron
that sums signed counters indexed by pc and several short global-history
hashes and overrides TAGE when the weighted vote confidently disagrees.
The confidence threshold adapts online (Seznec's dynamic threshold
fitting).

Like the TAGE core, the SC is stream-bound: its per-table history-hash
index streams are precomputed from the trace tensors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, List

from repro.common.stats import StatGroup
from repro.tage.config import SC_HISTORY_LENGTHS, TageConfig
from repro.tage.streams import TraceTensors, build_index_streams


@dataclass
class SCPrediction:
    """Result of a statistical-corrector evaluation."""

    pred: bool  # final direction after possible override
    overrode: bool  # SC disagreed with and overrode the input prediction
    total: int  # signed perceptron sum (includes the prior term)


class StatisticalCorrector:
    """GEHL-style corrector with an adaptive override threshold."""

    def __init__(self, config: TageConfig, tensors: TraceTensors) -> None:
        self.config = config
        self.stats = StatGroup("sc")
        entries = config.sc_entries
        index_bits = max(2, (entries - 1).bit_length())
        self._mask = (1 << index_bits) - 1
        # length 0 = bias table indexed by pc alone; others use history hashes
        self._history_lengths = [length for length in SC_HISTORY_LENGTHS if length > 0]
        if len(self._history_lengths) != 4:
            # the fused kernel unrolls exactly four history tables
            raise ValueError(
                "the SC kernel needs 4 history tables, got %d" % len(self._history_lengths)
            )
        self.idx_streams: List[array] = build_index_streams(
            tensors, self._history_lengths, [index_bits] * len(self._history_lengths)
        )
        self._ctr_max = (1 << (config.sc_counter_bits - 1)) - 1
        self._ctr_min = -(self._ctr_max + 1)
        self._bias = array("h", [0]) * (1 << index_bits)
        self._tables = [array("h", [0]) * (1 << index_bits) for _ in self._history_lengths]
        # local-history component (real TSL has one): per-branch outcome
        # shift registers feeding a dedicated counter table
        self._local_bits = 11
        self._local_slot_mask = 1023
        self._local_hist = array("l", [0]) * 1024
        self._local_table = array("h", [0]) * (2 << index_bits)
        self._local_mask = (2 << index_bits) - 1
        # adaptive threshold state
        self._theta = 6
        self._theta_counter = 0
        #: fused evaluate+train kernel; bit-identical to predict()+update()
        self.fused_step = self._build_fused_step()

    def _bias_index(self, pc: int) -> int:
        return ((pc >> 2) ^ (pc >> 8)) & self._mask

    def _local_index(self, pc: int) -> int:
        history = self._local_hist[(pc >> 2) & self._local_slot_mask]
        return ((pc >> 2) ^ (pc >> 7) ^ history * 3 ^ (history >> 4)) & self._local_mask

    def _sum(self, t: int, pc: int, input_pred: bool, input_conf: int) -> int:
        total = 2 * self._bias[self._bias_index(pc)] + 1
        total += 2 * (2 * self._local_table[self._local_index(pc)] + 1)
        for table, stream in zip(self._tables, self.idx_streams):
            total += 2 * table[stream[t]] + 1
        # prior: trust the input proportionally to its confidence
        prior = 4 + 2 * min(input_conf, 3)
        total += prior if input_pred else -prior
        return total

    def predict(self, t: int, pc: int, input_pred: bool, input_conf: int) -> SCPrediction:
        total = self._sum(t, pc, input_pred, input_conf)
        sc_pred = total >= 0
        if sc_pred != input_pred and abs(total) >= self._theta:
            self.stats.add("overrides")
            return SCPrediction(pred=sc_pred, overrode=True, total=total)
        return SCPrediction(pred=input_pred, overrode=False, total=total)

    def update(self, t: int, pc: int, taken: bool, result: SCPrediction) -> None:
        """Train counters on low-margin or incorrect sums; adapt threshold."""
        sc_pred = result.total >= 0
        if sc_pred != taken or abs(result.total) < self._theta * 4:
            delta = 1 if taken else -1
            idx = self._bias_index(pc)
            self._bias[idx] = self._clip(self._bias[idx] + delta)
            local = self._local_index(pc)
            self._local_table[local] = self._clip(self._local_table[local] + delta)
            for table, stream in zip(self._tables, self.idx_streams):
                j = stream[t]
                table[j] = self._clip(table[j] + delta)
        # local history advances on every resolved conditional branch
        slot = (pc >> 2) & self._local_slot_mask
        self._local_hist[slot] = ((self._local_hist[slot] << 1) | int(taken)) & ((1 << self._local_bits) - 1)
        # dynamic threshold fitting: balance override aggressiveness
        if result.overrode:
            if result.pred == taken:
                self._theta_counter -= 1
            else:
                self._theta_counter += 1
            if self._theta_counter >= 8:
                # the sum spans several hundred; the threshold must be able
                # to suppress a confidently-wrong consensus entirely
                self._theta = min(511, self._theta + self._theta // 8 + 2)
                self._theta_counter = 0
            elif self._theta_counter <= -8:
                self._theta = max(4, self._theta - max(1, self._theta // 16))
                self._theta_counter = 0

    def _clip(self, value: int) -> int:
        return max(self._ctr_min, min(self._ctr_max, value))

    # -- fused hot path ----------------------------------------------------------

    def _build_fused_step(self) -> Callable[[int, int, bool, int, bool], bool]:
        """Specialise the per-branch SC kernel at construction time.

        Returns ``fused(t, pc, input_pred, input_conf, taken) -> final
        prediction``: one call evaluates the corrector *and* trains it,
        matching ``predict()`` followed by ``update()`` bit for bit without
        constructing an :class:`SCPrediction`.  Tables, streams, and masks
        are hoisted into locals and the four history tables are unrolled;
        the adaptive threshold stays on ``self`` (it is only rewritten on
        the rare override path).
        """
        bias = self._bias
        mask = self._mask
        local_table = self._local_table
        local_hist = self._local_hist
        local_mask = self._local_mask
        local_slot_mask = self._local_slot_mask
        local_bits_mask = (1 << self._local_bits) - 1
        table0, table1, table2, table3 = self._tables
        stream0, stream1, stream2, stream3 = self.idx_streams
        ctr_max = self._ctr_max
        ctr_min = self._ctr_min
        stats_add = self.stats.add

        def fused(t: int, pc: int, input_pred: bool, input_conf: int, taken: bool) -> bool:
            pc2 = pc >> 2
            bias_idx = (pc2 ^ (pc >> 8)) & mask
            slot = pc2 & local_slot_mask
            history = local_hist[slot]
            local_idx = (pc2 ^ (pc >> 7) ^ history * 3 ^ (history >> 4)) & local_mask
            j0 = stream0[t]
            j1 = stream1[t]
            j2 = stream2[t]
            j3 = stream3[t]
            # sum over the six tables of (2 * counter + 1), the local
            # table's term doubled
            total = 7 + 2 * (
                bias[bias_idx]
                + 2 * local_table[local_idx]
                + table0[j0]
                + table1[j1]
                + table2[j2]
                + table3[j3]
            )
            prior = 4 + 2 * (input_conf if input_conf < 3 else 3)
            total += prior if input_pred else -prior

            sc_pred = total >= 0
            abs_total = total if sc_pred else -total
            theta = self._theta
            if sc_pred != input_pred and abs_total >= theta:
                stats_add("overrides")
                overrode = True
                final = sc_pred
            else:
                overrode = False
                final = input_pred

            # -- train --
            if sc_pred != taken or abs_total < theta * 4:
                if taken:
                    value = bias[bias_idx]
                    if value < ctr_max:
                        bias[bias_idx] = value + 1
                    value = local_table[local_idx]
                    if value < ctr_max:
                        local_table[local_idx] = value + 1
                    value = table0[j0]
                    if value < ctr_max:
                        table0[j0] = value + 1
                    value = table1[j1]
                    if value < ctr_max:
                        table1[j1] = value + 1
                    value = table2[j2]
                    if value < ctr_max:
                        table2[j2] = value + 1
                    value = table3[j3]
                    if value < ctr_max:
                        table3[j3] = value + 1
                else:
                    value = bias[bias_idx]
                    if value > ctr_min:
                        bias[bias_idx] = value - 1
                    value = local_table[local_idx]
                    if value > ctr_min:
                        local_table[local_idx] = value - 1
                    value = table0[j0]
                    if value > ctr_min:
                        table0[j0] = value - 1
                    value = table1[j1]
                    if value > ctr_min:
                        table1[j1] = value - 1
                    value = table2[j2]
                    if value > ctr_min:
                        table2[j2] = value - 1
                    value = table3[j3]
                    if value > ctr_min:
                        table3[j3] = value - 1
            local_hist[slot] = ((history << 1) | taken) & local_bits_mask

            if overrode:
                if final == taken:
                    counter = self._theta_counter - 1
                else:
                    counter = self._theta_counter + 1
                if counter >= 8:
                    self._theta = min(511, theta + theta // 8 + 2)
                    counter = 0
                elif counter <= -8:
                    self._theta = max(4, theta - max(1, theta // 16))
                    counter = 0
                self._theta_counter = counter
            return final

        return fused

    @property
    def theta(self) -> int:
        return self._theta

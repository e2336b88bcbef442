"""The Context Tracking Table (CTT) -- LLBP-X's new structure (paper §V-B).

The CTT monitors contended contexts and decides, per *shallow* context,
whether to use the shallow (W=2) or deep (W=64) context depth.  Each
entry holds a tag, a saturating ``avg-hist-len`` counter, a depth bit,
and replacement state.  A context enters the CTT when its pattern set
overflows with confident patterns; once tracked, allocations with history
length above ``H_th`` push the counter up, shorter ones push it down, and
the counter's saturation points toggle the depth bit with hysteresis.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.common.stats import StatGroup


class CTTEntry:
    """Tracking state for one shallow context."""

    __slots__ = ("avg_hist_len", "deep")

    def __init__(self) -> None:
        self.avg_hist_len = 0
        self.deep = False


class ContextTrackingTable:
    """Set-associative, LRU-replaced table of tracked contexts."""

    def __init__(
        self,
        entries: int,
        assoc: int,
        tag_bits: int,
        avg_hist_len_bits: int,
    ) -> None:
        if entries < assoc:
            raise ValueError(f"need at least {assoc} entries, got {entries}")
        self.assoc = assoc
        self.num_sets = max(1, entries // assoc)
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.counter_max = (1 << avg_hist_len_bits) - 1
        self.stats = StatGroup("ctt")
        # one LRU-ordered dict of tag -> entry per set; the LLBP-X lane
        # tail probes it inline, exactly as lookup() does
        self._sets: Dict[int, "OrderedDict[int, CTTEntry]"] = {}

    def _locate(self, context_id: int) -> tuple:
        set_index = context_id % self.num_sets
        tag = (context_id // self.num_sets) & self.tag_mask
        return set_index, tag

    def lookup(self, context_id: int) -> Optional[CTTEntry]:
        """Probe by shallow context ID; refreshes LRU on hit."""
        set_index, tag = self._locate(context_id)
        ways = self._sets.get(set_index)
        if ways is None:
            return None
        entry = ways.get(tag)
        if entry is not None:
            ways.move_to_end(tag)
        return entry

    def is_deep(self, context_id: int) -> bool:
        """The depth-selection answer the RCR multiplexer consumes."""
        entry = self.lookup(context_id)
        return entry.deep if entry is not None else False

    def track(self, context_id: int) -> CTTEntry:
        """Begin (or continue) tracking a contended context."""
        set_index, tag = self._locate(context_id)
        ways = self._sets.setdefault(set_index, OrderedDict())
        entry = ways.get(tag)
        if entry is not None:
            ways.move_to_end(tag)
            return entry
        if len(ways) >= self.assoc:
            ways.popitem(last=False)
            self.stats.add("evictions")
        entry = CTTEntry()
        ways[tag] = entry
        self.stats.add("insertions")
        return entry

    def observe_allocation(
        self, context_id: int, history_length: int, threshold: int, step: int = 1
    ) -> Optional[bool]:
        """Feed one pattern allocation to a tracked context.

        Returns the new depth bit when a transition happened, else None.
        Long allocations (``>= threshold``) raise ``avg-hist-len`` by
        ``step``; shorter ones lower it by one.  Saturating high switches
        to deep; draining to zero reverts to shallow (the hysteresis of
        §V-B.1).
        """
        entry = self.lookup(context_id)
        if entry is None:
            return None
        if history_length >= threshold:
            entry.avg_hist_len = min(self.counter_max, entry.avg_hist_len + step)
        elif entry.avg_hist_len > 0:
            entry.avg_hist_len -= 1
        if not entry.deep and entry.avg_hist_len >= self.counter_max:
            entry.deep = True
            self.stats.add("to_deep")
            return True
        if entry.deep and entry.avg_hist_len == 0:
            entry.deep = False
            self.stats.add("to_shallow")
            return False
        return None

    def tracked_count(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    def deep_count(self) -> int:
        return sum(1 for ways in self._sets.values() for e in ways.values() if e.deep)

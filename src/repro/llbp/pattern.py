"""Pattern sets: LLBP's unit of metadata storage and prefetch.

A pattern set holds up to 16 patterns for one context.  Each pattern is
``(length_index, tag, counter)`` where ``length_index`` points into the
canonical 21-length TAGE series.  With the design tweaks enabled (paper
§II-C.4) the 16 patterns are organised as 4 buckets of 4, each bucket
covering a contiguous range of the *active* history lengths, which limits
the sorting hardware; without tweaks the set is fully associative.

Lookup returns the longest matching pattern, exactly TAGE's partial
pattern matching; replacement evicts the least-confident pattern in the
relevant bucket (LLBP's allocation policy).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: an allocation's ``(lo_idx, hi_idx, slots)`` when nothing competes with
#: it: an empty index range that never fills (unbounded sets)
_NO_COMPETITION = (1, 0, sys.maxsize)


class Pattern:
    """One stored (length, tag, counter) pattern."""

    __slots__ = ("length_index", "tag", "ctr", "useful")

    def __init__(self, length_index: int, tag: int, taken: bool) -> None:
        self.length_index = length_index
        self.tag = tag
        self.ctr = 0 if taken else -1  # weakest state of the observed direction
        self.useful = 0  # analysis-mode: correct overrides of the baseline

    def update(self, taken: bool, ctr_max: int, ctr_min: int) -> None:
        if taken:
            if self.ctr < ctr_max:
                self.ctr += 1
        elif self.ctr > ctr_min:
            self.ctr -= 1

    @property
    def pred(self) -> bool:
        return self.ctr >= 0

    def confidence(self) -> int:
        return self.ctr if self.ctr >= 0 else -self.ctr - 1

    def is_confident(self, ctr_max: int) -> bool:
        """Within one step of saturation -- LLBP's "high confidence"."""
        return self.ctr >= ctr_max - 1 or self.ctr <= -ctr_max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pattern(len_idx={self.length_index}, tag={self.tag:#x}, ctr={self.ctr})"


class PatternSet:
    """A bounded (or unbounded) collection of patterns for one context."""

    __slots__ = (
        "capacity", "bucket_ranges", "patterns", "dirty", "ctr_max", "ctr_min",
    )

    def __init__(
        self,
        capacity: int,
        counter_bits: int = 3,
        bucket_ranges: Optional[List[Tuple[int, int, int]]] = None,
    ) -> None:
        """``capacity`` <= 0 means unlimited (limit-study +Inf Patterns).

        ``bucket_ranges`` is a list of ``(lo_idx, hi_idx, slots)`` triples
        partitioning the active length indices; ``None`` disables
        bucketing (fully associative set).
        """
        self.capacity = capacity
        self.bucket_ranges = bucket_ranges
        self.patterns: List[Pattern] = []
        self.dirty = False
        self.ctr_max = (1 << (counter_bits - 1)) - 1
        self.ctr_min = -(1 << (counter_bits - 1))

    # -- lookup ---------------------------------------------------------------

    def lookup(self, t: int, tag_streams: Sequence, active_indices: Sequence[int]) -> Optional[Pattern]:
        """Longest pattern whose tag matches the branch at record ``t``.

        ``tag_streams[length_index][t]`` gives the live tag for each
        canonical length; ``active_indices`` is unused for matching (the
        stored pattern knows its length) but kept for signature clarity.
        """
        best: Optional[Pattern] = None
        for pattern in self.patterns:
            if tag_streams[pattern.length_index][t] == pattern.tag:
                if best is None or pattern.length_index > best.length_index:
                    best = pattern
        return best

    def find(self, length_index: int, tag: int) -> Optional[Pattern]:
        for pattern in self.patterns:
            if pattern.length_index == length_index and pattern.tag == tag:
                return pattern
        return None

    # -- allocation ------------------------------------------------------------

    def allocate(self, length_index: int, tag: int, taken: bool) -> Optional[Pattern]:
        """Insert a new pattern, evicting the least-confident on conflict.

        An existing ``(length_index, tag)`` pattern trains instead.  The
        victim is the first least-confident pattern of the new pattern's
        bucket (the whole set when unbucketed), found in the same pass
        over the set as the existing-pattern check.  Returns the new
        pattern, or ``None`` when the length is outside every bucket range
        (LLBP-X drops such allocations, §V-C).
        """
        capacity = self.capacity
        if capacity <= 0:
            bucket: Optional[Tuple[int, int, int]] = _NO_COMPETITION
        elif self.bucket_ranges is None:
            bucket = (0, sys.maxsize, capacity)  # the whole set competes
        else:
            bucket = None
            for candidate in self.bucket_ranges:
                if candidate[0] <= length_index <= candidate[1]:
                    bucket = candidate
                    break
        lo, hi, slots = bucket if bucket is not None else _NO_COMPETITION
        patterns = self.patterns
        residents = 0
        victim = -1
        victim_conf = 0
        for position, resident in enumerate(patterns):
            index = resident.length_index
            if index == length_index and resident.tag == tag:
                resident.update(taken, self.ctr_max, self.ctr_min)
                self.dirty = True
                return resident
            if lo <= index <= hi:
                residents += 1
                ctr = resident.ctr
                conf = ctr if ctr >= 0 else -ctr - 1
                if victim < 0 or conf < victim_conf:
                    victim = position
                    victim_conf = conf

        self.dirty = True
        if bucket is None:
            return None
        if residents >= slots:
            del patterns[victim]
        pattern = Pattern(length_index, tag, taken)
        patterns.append(pattern)
        return pattern

    # -- bookkeeping ------------------------------------------------------------

    def confident_count(self) -> int:
        """Patterns near counter saturation (drives the CTT overflow signal)."""
        ctr_max = self.ctr_max
        return sum(1 for p in self.patterns if p.is_confident(ctr_max))

    def __len__(self) -> int:
        return len(self.patterns)


def make_bucket_ranges(
    active_indices: Sequence[int], num_buckets: int, bucket_size: int
) -> List[Tuple[int, int, int]]:
    """Partition the active canonical length indices into equal buckets.

    Active histories are split evenly between buckets (paper §V-C), each
    covering a contiguous range ``[lo_idx, hi_idx]`` with ``bucket_size``
    slots.
    """
    if not active_indices:
        raise ValueError("need at least one active history length")
    ordered = sorted(active_indices)
    per_bucket = -(-len(ordered) // num_buckets)
    starts: List[int] = []
    for b in range(num_buckets):
        chunk = ordered[b * per_bucket : (b + 1) * per_bucket]
        if not chunk:
            break
        starts.append(chunk[0])
    # buckets tile the whole index space contiguously: bucket b covers
    # [its first active index .. next bucket's first active index - 1],
    # with the outermost buckets widened to absorb every canonical index
    ranges: List[Tuple[int, int, int]] = []
    for b, start in enumerate(starts):
        lo = 0 if b == 0 else start
        hi = (starts[b + 1] - 1) if b + 1 < len(starts) else 10_000
        ranges.append((lo, hi, bucket_size))
    return ranges


class UsefulTracker:
    """Analysis-mode accounting of *useful* patterns per context (Figs 6-9).

    A pattern occurrence is useful when LLBP's prediction is correct while
    the baseline TSL would have mispredicted.  Keys are ``(context_id,
    length_index, tag)``.
    """

    def __init__(self) -> None:
        self.useful: Dict[Tuple[int, int, int], int] = {}

    def record(self, context_id: int, pattern: Pattern) -> None:
        key = (context_id, pattern.length_index, pattern.tag)
        self.useful[key] = self.useful.get(key, 0) + 1

    def per_context_counts(self) -> Dict[int, int]:
        """Number of distinct useful patterns per context."""
        counts: Dict[int, int] = {}
        for (context_id, _li, _tag) in self.useful:
            counts[context_id] = counts.get(context_id, 0) + 1
        return counts

    def per_context_lengths(self, lengths: Sequence[int]) -> Dict[int, float]:
        """Average history length of useful patterns per context."""
        sums: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for (context_id, length_index, _tag) in self.useful:
            sums[context_id] = sums.get(context_id, 0) + lengths[length_index]
            counts[context_id] = counts.get(context_id, 0) + 1
        return {cid: sums[cid] / counts[cid] for cid in sums}

    def duplication_by_length(self, lengths: Sequence[int]) -> Dict[int, float]:
        """Per history length: duplicate fraction of useful patterns (Fig 8).

        Duplication counts (length, tag) pairs that appear in more than
        one context; the metric is ``1 - unique / total`` as in the paper.
        """
        total: Dict[int, int] = {}
        unique: Dict[int, set] = {}
        for (_cid, length_index, tag) in self.useful:
            length = lengths[length_index]
            total[length] = total.get(length, 0) + 1
            unique.setdefault(length, set()).add((length_index, tag))
        return {
            length: 1.0 - len(unique[length]) / total[length]
            for length in total
        }

    def useful_by_length(self, lengths: Sequence[int]) -> Dict[int, int]:
        """Total useful predictions per history length (Fig 9)."""
        out: Dict[int, int] = {}
        for key, count in self.useful.items():
            length = lengths[key[1]]
            out[length] = out.get(length, 0) + count
        return out

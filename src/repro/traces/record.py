"""Branch trace representation.

A trace is the unit of input for every simulation in this repository.  It
is stored column-wise because the simulator's inner loop iterates millions
of records and CPython iterates flat columns much faster than it
constructs objects.  Columns are *dual-backed*: traces under construction
use plain Python lists (``append`` is the builder API), while traces
loaded from disk or the artifact store keep numpy arrays -- possibly
memory-mapped, so loading a million-branch trace touches no pages until
they are read.  :meth:`Trace.aslists` converts any column to a cached
Python list of scalars for the hot simulation loop, making the two
backings bit-identical to consume.  :meth:`Trace.records` provides a
record-at-a-time view for convenience and tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np


class BranchKind(enum.IntEnum):
    """Branch classes relevant to the predictors.

    ``COND`` branches are predicted; all other kinds are *unconditional*
    and participate in context formation (LLBP's rolling context register)
    and path history.
    """

    COND = 0
    JUMP = 1
    CALL = 2
    RETURN = 3

    @property
    def is_unconditional(self) -> bool:
        return self is not BranchKind.COND


class BranchRecord(NamedTuple):
    """One dynamic branch instance."""

    pc: int
    target: int
    kind: BranchKind
    taken: bool
    inst_gap: int  # non-branch instructions executed since the previous branch


#: numpy dtypes of the five trace columns (shared by io and the artifact
#: store so every serialised form agrees)
COLUMN_DTYPES: Dict[str, object] = {
    "pcs": np.uint64,
    "targets": np.uint64,
    "kinds": np.uint8,
    "taken": np.bool_,
    "inst_gaps": np.uint32,
}

_COLUMN_NAMES: Tuple[str, ...] = tuple(COLUMN_DTYPES)


def _column_list(values: Sequence) -> List:
    """Python-list-of-scalars form of a column (either backing)."""
    if isinstance(values, list):
        return values
    return np.asarray(values).tolist()


@dataclass(eq=False)
class Trace:
    """A columnar dynamic branch trace plus provenance metadata.

    Columns are Python lists while a trace is being built (``append``)
    and may be numpy arrays -- including read-only memmaps -- once frozen
    by :meth:`compact` or loaded from disk.  Consumers that index
    per-record should go through :meth:`aslists` so they always see plain
    Python scalars regardless of the backing.
    """

    name: str = "unnamed"
    seed: int = 0
    pcs: Sequence[int] = field(default_factory=list)
    targets: Sequence[int] = field(default_factory=list)
    kinds: Sequence[int] = field(default_factory=list)
    taken: Sequence[bool] = field(default_factory=list)
    inst_gaps: Sequence[int] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._list_cache: Dict[str, List] = {}
        self._num_cond_cache: Tuple[int, int] = (-1, 0)  # (len at computation, value)

    def __getstate__(self) -> Dict[str, object]:
        """Pickle (and ``copy.copy``) as numpy columns only.

        The :meth:`aslists` cache holds plain-int lists several times the
        size of the columns, so it never travels: a copy shares the
        columns and starts with empty caches.
        """
        state = {
            column: np.asarray(getattr(self, column), dtype=dtype)
            for column, dtype in COLUMN_DTYPES.items()
        }
        state.update(name=self.name, seed=self.seed, meta=self.meta)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def append(self, pc: int, target: int, kind: BranchKind, taken: bool, inst_gap: int) -> None:
        if inst_gap < 0:
            raise ValueError(f"inst_gap must be non-negative, got {inst_gap}")
        self.pcs.append(pc)
        self.targets.append(target)
        self.kinds.append(int(kind))
        self.taken.append(taken)
        self.inst_gaps.append(inst_gap)
        self._list_cache.clear()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if (self.name, self.seed, self.meta) != (other.name, other.seed, other.meta):
            return False
        return all(self.aslists(n)[0] == other.aslists(n)[0] for n in _COLUMN_NAMES)

    def compact(self) -> "Trace":
        """Freeze list columns into compact numpy arrays (in place).

        Generated traces call this once construction finishes: the arrays
        serialise to the artifact store without conversion and cost a
        fraction of the list memory.  ``append`` is invalid afterwards.
        Returns ``self`` for chaining.
        """
        for column, dtype in COLUMN_DTYPES.items():
            values = getattr(self, column)
            if isinstance(values, list):
                setattr(self, column, np.asarray(values, dtype=dtype))
        return self

    def aslists(self, *names: str) -> Tuple[List, ...]:
        """Requested columns as Python lists of plain scalars (cached).

        ``trace.aslists("pcs", "taken")`` returns ``(pcs, taken)``.  For
        list-backed columns this is the column itself; array-backed
        columns are converted once via ``tolist`` (milliseconds for a
        million records, versus seconds for element-wise conversion) and
        cached.  The hot loops index these lists, so numpy scalar types
        never leak into predictor arithmetic.
        """
        out = []
        for column in names:
            if column not in _COLUMN_NAMES:
                raise KeyError(f"unknown trace column {column!r}")
            cached = self._list_cache.get(column)
            if cached is None:
                cached = _column_list(getattr(self, column))
                self._list_cache[column] = cached
            out.append(cached)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_branches(self) -> int:
        return len(self.pcs)

    @property
    def num_conditional(self) -> int:
        """Number of conditional records (cached; invalidated by growth)."""
        n, value = self._num_cond_cache
        if n != len(self.kinds):
            kinds = np.asarray(self.kinds, dtype=np.uint8)
            value = int(np.count_nonzero(kinds == np.uint8(int(BranchKind.COND))))
            self._num_cond_cache = (len(self.kinds), value)
        return value

    @property
    def num_unconditional(self) -> int:
        return len(self.kinds) - self.num_conditional

    @property
    def num_instructions(self) -> int:
        """Total instructions: every branch is itself one instruction."""
        return int(np.sum(np.asarray(self.inst_gaps, dtype=np.int64))) + len(self.pcs)

    def records(self) -> Iterator[BranchRecord]:
        columns = self.aslists(*_COLUMN_NAMES)
        for pc, target, kind, taken, gap in zip(*columns):
            yield BranchRecord(pc, target, BranchKind(kind), taken, gap)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering records ``[start, stop)``."""
        sub = Trace(name=f"{self.name}[{start}:{stop}]", seed=self.seed, meta=dict(self.meta))
        sub.pcs = self.pcs[start:stop]
        sub.targets = self.targets[start:stop]
        sub.kinds = self.kinds[start:stop]
        sub.taken = self.taken[start:stop]
        sub.inst_gaps = self.inst_gaps[start:stop]
        return sub

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        lengths = {
            len(self.pcs),
            len(self.targets),
            len(self.kinds),
            len(self.taken),
            len(self.inst_gaps),
        }
        if len(lengths) != 1:
            raise ValueError(f"column lengths disagree: {lengths}")
        kinds, taken, gaps = self.aslists("kinds", "taken", "inst_gaps")
        for i, (kind, is_taken) in enumerate(zip(kinds, taken)):
            if kind != BranchKind.COND and not is_taken:
                raise ValueError(f"record {i}: unconditional branches are always taken")
        for i, gap in enumerate(gaps):
            if gap < 0:
                raise ValueError(f"record {i}: negative inst_gap {gap}")

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by tests and workload reports."""
        pcs, kinds, taken = self.aslists("pcs", "kinds", "taken")
        n_cond = self.num_conditional
        n_taken = sum(
            1 for kind, is_taken in zip(kinds, taken) if kind == BranchKind.COND and is_taken
        )
        n_static = len(set(pcs))
        n_static_cond = len({pc for pc, kind in zip(pcs, kinds) if kind == BranchKind.COND})
        instructions = self.num_instructions
        return {
            "branches": float(len(self)),
            "conditional": float(n_cond),
            "unconditional": float(len(self) - n_cond),
            "instructions": float(instructions),
            "taken_ratio": n_taken / n_cond if n_cond else 0.0,
            "branches_per_kilo_inst": 1000.0 * len(self) / instructions if instructions else 0.0,
            "static_branches": float(n_static),
            "static_conditional": float(n_static_cond),
        }

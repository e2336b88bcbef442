"""The rolling context register (RCR): context-ID formation from UB history.

A context ID is a hash of the ``W`` unconditional branches that precede
the ``D`` most recent ones (paper §II-C.2 and Fig 2).  Because the UB
stream is fixed by the trace, every context ID -- current (CCID) and
prefetch-trigger (PCID) -- is precomputable.  :class:`ContextStreams`
computes, per context depth W:

* ``window_hash[k]``: hash of the UB window ending at UB index ``k``
  (size W, or the available prefix while the register warms up), and

* helpers mapping record positions to UB indices, so a predictor can read
  its active context as ``window_hash[ub_prefix[t] - D - 1]`` and its
  prefetch trigger at UB ``k`` as ``window_hash[k]`` (that context becomes
  active after D further UBs -- the latency-hiding window), and

* LLBP-X's context IDs (:meth:`ContextStreams.context_ids`): the window
  hashes masked into the ID space, with :data:`DEEP_BIT` marking the deep
  depth's, so every LLBP-X lane over one bundle shares one list per depth.

Hashing uses a polynomial rolling hash mod 2**64 finalised with
:func:`repro.common.mix64`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.bitops import mix64
from repro.tage.streams import TraceTensors
from repro.traces.record import BranchKind

_B = 0x100000001B3  # odd polynomial base (FNV prime), invertible mod 2^64
_M = (1 << 64) - 1

#: bit marking an LLBP-X context ID as produced with the deep depth; keeps
#: the two ID spaces disjoint so a context's depth is recoverable from its ID
DEEP_BIT = 1 << 62
#: the bits of a window hash an LLBP-X context ID keeps
ID_MASK = DEEP_BIT - 1


#: branch kinds that participate in context formation.  Calls and returns
#: carry the call-chain identity the paper's contexts are built from;
#: plain direct jumps would only dilute shallow windows, so the rolling
#: register skips them (they still appear in the trace and in history).
CONTEXT_KINDS = (int(BranchKind.CALL), int(BranchKind.RETURN))


def _scalar_list(values: Sequence[int]) -> List[int]:
    """Plain-Python-int list form of a possibly array-backed sequence."""
    if isinstance(values, list):
        return values
    return np.asarray(values).tolist()


def _ub_values(tensors: TraceTensors) -> List[int]:
    """Per-context-UB identity values: site plus target (path identity)."""
    kinds = tensors.kinds
    pcs, targets = tensors.trace.aslists("pcs", "targets")
    return [
        mix64(pcs[t] * 3 ^ targets[t])
        for t in range(tensors.num_records)
        if kinds[t] in CONTEXT_KINDS
    ]


def rolling_window_hashes(values: Sequence[int], window: int) -> List[int]:
    """Hash of the last ``window`` values ending at each position.

    Positions earlier than ``window - 1`` hash the available prefix, which
    models a warming-up rolling register deterministically.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    hashes: List[int] = []
    history: List[int] = []
    b_pow_w = pow(_B, window, 1 << 64)
    window_sum = 0
    for k, value in enumerate(values):
        window_sum = (window_sum * _B + value) & _M
        if k >= window:
            window_sum = (window_sum - history[k - window] * b_pow_w) & _M
        history.append(value)
        hashes.append(mix64(window_sum))
    return hashes


class ContextStreams:
    """Precomputed context-ID streams for one trace and several depths W.

    ``ub_prefix`` and ``values`` may be supplied preloaded (the artifact
    store persists them as raw arrays), skipping the per-record Python
    scan.  ``hash_cache`` optionally attaches a persistent read-through /
    write-back store for the per-depth window hashes (duck-typed:
    ``load_context_hashes(depth)`` / ``store_context_hashes(depth,
    hashes)`` -- see :class:`repro.core.artifacts.BundleArtifacts`).
    """

    def __init__(
        self,
        tensors: TraceTensors,
        ub_prefix: Optional[Sequence[int]] = None,
        values: Optional[Sequence[int]] = None,
        hash_cache: Optional[object] = None,
    ) -> None:
        self.tensors = tensors
        self.hash_cache = hash_cache
        if ub_prefix is not None and values is not None:
            #: number of context-forming UBs *strictly before* each record
            self.ub_prefix: List[int] = _scalar_list(ub_prefix)
            self._values = _scalar_list(values)
        else:
            is_ub = np.isin(tensors.kinds, CONTEXT_KINDS).astype(np.int64)
            self.ub_prefix = (np.cumsum(is_ub) - is_ub).tolist()
            self._values = _ub_values(tensors)
        self.num_ubs = len(self._values)
        self._hashes: Dict[int, List[int]] = {}
        self._ids: Dict[Tuple[int, bool], List[int]] = {}

    def window_hashes(self, depth: int) -> List[int]:
        """Rolling hashes for context depth ``depth`` (cached)."""
        if depth not in self._hashes:
            hashes = None
            if self.hash_cache is not None:
                hashes = self.hash_cache.load_context_hashes(depth)
            if hashes is None:
                hashes = rolling_window_hashes(self._values, depth)
                if self.hash_cache is not None:
                    self.hash_cache.store_context_hashes(depth, hashes)
            self._hashes[depth] = hashes
        return self._hashes[depth]

    def context_ids(self, depth: int, deep: bool) -> List[int]:
        """LLBP-X context IDs per UB index at ``depth`` (cached).

        Each window hash masked with :data:`ID_MASK`, and with
        :data:`DEEP_BIT` set when ``deep`` -- what LLBP-X's depth selection
        computes per branch, done once per UB for every lane of the bundle.
        """
        key = (depth, deep)
        ids = self._ids.get(key)
        if ids is None:
            flag = DEEP_BIT if deep else 0
            ids = [(h & ID_MASK) | flag for h in self.window_hashes(depth)]
            self._ids[key] = ids
        return ids

    def context_of_record(self, t: int, depth: int, distance: int) -> int:
        """Active context ID for the branch at record ``t`` (-1 while cold).

        The context is formed from the ``depth`` UBs preceding the
        ``distance`` most recent ones, per §II-C.2.
        """
        end = self.ub_prefix[t] - distance - 1
        if end < 0:
            return -1
        return self.window_hashes(depth)[end]

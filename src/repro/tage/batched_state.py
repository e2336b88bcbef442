"""The shared TAGE+loop base and the TAGE-SC-L lane tail.

Every shipped predictor is a lane-invariant *base* -- the TAGE core and
the loop predictor, which evolve as a pure function of ``(t, pc, taken)``
and their own :class:`~repro.tage.config.TageConfig` -- plus a per-design
*tail*: the statistical corrector, and for the LLBP family the pattern
buffer / store and CTT.  LLBP and LLBP-X call the TAGE core and train the
loop predictor with inputs no other state feeds, so one base serves every
lane that shares a base config, bit-identically.

:class:`SharedBase` runs the base exactly once over a trace, recording
each conditional branch's base outputs -- TAGE direction and confidence,
bimodal direction, provider table, the post-loop TSL direction, and loop
validity -- packed into one int per record.  The per-branch kernels are
the lane *tails* (:meth:`SharedBase.build_tsl_tail` here, and
:func:`repro.llbp.batched_state.build_llbp_tail` for the LLBP family):
they replay the recorded stream and run only the lane's own state
machines.  A predictor built without a ``base`` owns one whose core and
loop are its own ``tage``/``loop``; the base records the first time the
predictor's ``step`` kernel is used.  ``predict``/``update`` never touch
the stream: they drive the same core live and stay the test oracle.

The recording is held as a packed ``uint64`` numpy array end-to-end --
8 B/branch, mmap-sharable, and persistable as-is by the
:class:`~repro.core.artifacts.ArtifactStore` (the stream is a pure
function of trace bundle + base config, so one recording serves every
later run).  Tail kernels read it through :meth:`SharedBase.words`, one
plain-int list per base that all of its lanes share, so only plain Python
ints enter the per-branch hot path -- numpy scalar types must never leak
into predictor hashing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.obs.sampling import active_sampler
from repro.tage.config import TageConfig
from repro.tage.loop_predictor import _CONF_MAX, LoopPredictor
from repro.tage.streams import TraceTensors
from repro.tage.tage import TageCore

if TYPE_CHECKING:
    from repro.tage.tsl import TageSCL

#: a per-branch kernel: ``step(t, pc, taken) -> mispredicted``
StepFn = Callable[[int, int, bool], bool]
#: an unconditional-record kernel: ``ub_step(start, end)`` runs the
#: unconditional records ``start .. end - 1`` of one same-kind run
UBStepFn = Callable[[int, int], None]

# -- packed base-record layout (one int per trace record) ----------------------
#
#   bit 0      TAGE direction
#   bit 1      TSL direction (after the loop-predictor override)
#   bit 2      bimodal direction
#   bit 3      loop predictor valid (confident hit)
#   bits 4-9   provider table + 1 (0 = bimodal provider)
#   bits 10+   TAGE provider confidence

BASE_TAGE_PRED = 1
BASE_TSL_PRED = 2
BASE_BIM_PRED = 4
BASE_LOOP_VALID = 8
BASE_PROVIDER_SHIFT = 4
BASE_PROVIDER_MASK = 0x3F
BASE_CONF_SHIFT = 10

#: version of the packed word layout above; part of every persisted
#: base-stream key, so changing the layout invalidates stored streams
#: with no manual cleanup (see :mod:`repro.core.artifacts`)
BASE_STREAM_VERSION = 1

#: on-disk / in-memory dtype of a packed base stream
BASE_STREAM_DTYPE = np.uint64


class SharedBase:
    """One TAGE core + loop predictor, recorded over a trace.

    The components are built on first use of :attr:`core`/:attr:`loop`;
    :meth:`record` advances them over every conditional record exactly
    once while packing the per-branch outputs the lane tails need.  Lanes
    built with ``base=`` this object share its core and loop, so after
    the record pass their table state is exactly that of a predictor that
    ran the base itself.

    :meth:`adopt_stream` is the warm path: a stream recorded earlier
    (same bundle, same base config) -- held in a
    :class:`~repro.core.runner.Runner`'s memo or persisted by the
    :class:`~repro.core.artifacts.ArtifactStore` -- is adopted directly
    and the base pass is skipped entirely.  Lane *results* (counts,
    stats, extra) are bit-identical either way -- the tails read only the
    packed words.  An adopted base never builds its core unless something
    asks for it, and then gets untrained tables, since nothing replays
    into them.
    """

    def __init__(self, config: TageConfig, tensors: TraceTensors) -> None:
        self.config = config
        self.tensors = tensors
        self._core: Optional[TageCore] = None
        self._loop: Optional[LoopPredictor] = None
        self._packed: Optional[np.ndarray] = None
        self._words: Optional[List[int]] = None
        #: whether the stream arrived via :meth:`adopt_stream` (warm)
        self.adopted = False

    def _build(self) -> None:
        self._core = TageCore(self.config, self.tensors)
        self._loop = LoopPredictor(self.config.loop_entries) if self.config.use_loop else None

    @property
    def core(self) -> TageCore:
        """The TAGE core, built (with the loop predictor) on first use.

        :meth:`record` and the ``predict``/``update`` oracle use it; a
        base whose stream was adopted never pays for its tables and index
        streams unless something reads them.
        """
        if self._core is None:
            self._build()
        return self._core

    @property
    def loop(self) -> Optional[LoopPredictor]:
        """The loop predictor (``None`` when the config has none), built with :attr:`core`."""
        if self._core is None:
            self._build()
        return self._loop

    def record(self, trace, tensors: TraceTensors) -> None:
        """Advance the base over the whole trace, recording outputs.

        Per conditional branch: ``tage.fused_step`` (lookup + train), the
        inlined loop-predictor read, then ``loop.update`` -- all with
        lane-invariant inputs.  The loop predictor trains right after its
        read here, while ``predict``/``update`` train it after the SC;
        the two orders are state-identical because the loop and SC share
        no state.
        """
        pcs, takens = trace.aslists("pcs", "taken")
        packed = [0] * len(pcs)
        fused = self.core.fused_step
        loop = self.loop
        if loop is not None:
            loop_entries = loop._entries
            loop_mask = loop._mask
            loop_update = loop.update
        for start, end, is_cond in tensors.kind_runs():
            if not is_cond:
                continue  # unconditional branches leave the base untouched
            for t in range(start, end):
                pc = pcs[t]
                taken = takens[t]
                tage_pred, conf, bim_pred, provider, _length = fused(t, pc, taken)
                word = BASE_TAGE_PRED if tage_pred else 0
                tsl_pred = tage_pred
                if loop is not None:
                    key = pc >> 2
                    entry = loop_entries[key & loop_mask]
                    if entry.tag == (key & 0x3FFF) and entry.confidence >= _CONF_MAX:
                        word |= BASE_LOOP_VALID
                        direction = entry.direction
                        tsl_pred = (
                            (not direction) if entry.current_iter >= entry.past_iter else direction
                        )
                    loop_update(pc, taken, tage_pred != taken)
                if tsl_pred:
                    word |= BASE_TSL_PRED
                if bim_pred:
                    word |= BASE_BIM_PRED
                packed[t] = (
                    word
                    | ((provider + 1) << BASE_PROVIDER_SHIFT)
                    | (conf << BASE_CONF_SHIFT)
                )
        # the stream is held (and persisted) as a packed uint64 array;
        # words() makes the lanes' plain-int view when a tail asks for it
        self._packed = np.asarray(packed, dtype=BASE_STREAM_DTYPE)
        self._words = None

    def adopt_stream(self, packed: np.ndarray) -> None:
        """Adopt a previously persisted stream instead of recording one.

        ``packed`` is typically an ``mmap_mode="r"`` array straight from
        the artifact store; it is used as-is (no copy), so N processes
        replaying the same stream share its page-cache pages.  The
        core/loop stay untrained -- lane tails never read them.
        """
        if packed.ndim != 1:
            raise ValueError(f"packed base stream must be 1-D, got shape {packed.shape}")
        self._packed = packed if packed.dtype == BASE_STREAM_DTYPE else packed.astype(BASE_STREAM_DTYPE)
        self._words = None
        self.adopted = True

    @property
    def recorded(self) -> bool:
        return self._packed is not None

    def packed_stream(self) -> np.ndarray:
        """The per-record base outputs as a packed ``uint64`` array.

        Records the base over its bound trace first when no stream was
        recorded or adopted yet.
        """
        if self._packed is None:
            self.record(self.tensors.trace, self.tensors)
        return self._packed

    def words(self) -> List[int]:
        """The packed stream as a plain-int list, the lane tails' view of it.

        Built once per base and shared by every lane over it: a group
        holds one plain-int copy of its stream, however many lanes it has.
        """
        if self._words is None:
            self._words = self.packed_stream().tolist()
        return self._words

    def footprint_bytes(self) -> int:
        """Approximate memory held by the recorded stream (docs/telemetry)."""
        return 0 if self._packed is None else int(self._packed.nbytes)

    # -- lane tails --------------------------------------------------------------

    def build_tsl_tail(self, tsl: "TageSCL") -> StepFn:
        """Per-lane tail kernel for a plain TAGE-SC-L cell.

        Replays the recorded base outputs and runs only the lane's own
        statistical corrector and statistics.  Counters the oracle creates
        on their first increment are created on their first increment
        here too, so the result's stats hold the same keys.
        """
        words = self.words()
        sc_fused = tsl.sc.fused_step if tsl.sc is not None else None
        counter = tsl.stats.counter
        predictions_counter = counter("predictions")
        mispredictions = fast_path_overrides = None

        def tail(t: int, pc: int, taken: bool) -> bool:
            nonlocal mispredictions, fast_path_overrides
            word = words[t]
            tsl_pred = (word & BASE_TSL_PRED) != 0
            if sc_fused is not None:
                final = sc_fused(t, pc, tsl_pred, word >> BASE_CONF_SHIFT, taken)
            else:
                final = tsl_pred
            if final != taken:
                if mispredictions is None:
                    mispredictions = counter("mispredictions")
                mispredictions.value += 1
            if final != ((word & BASE_BIM_PRED) != 0):
                if fast_path_overrides is None:
                    fast_path_overrides = counter("fast_path_overrides")
                fast_path_overrides.value += 1
            predictions_counter.value += 1
            return final != taken

        return tail


def instrumented(predictor, kernel: StepFn) -> StepFn:
    """``kernel`` wrapped by the telemetry sampler when sampling is on.

    Without ``--sample-interval`` the bare tail runs untouched.  Samples
    read the predictor's state mid-run; TAGE gauges read the base core,
    which the record pass trained over the whole trace before the tail
    started -- or, for a lane over an adopted stream, an untrained core
    built by the first sample.
    """
    sampler = active_sampler()
    if sampler is None:
        return kernel
    return sampler.instrument(predictor.name, kernel, predictor.telemetry_sample)

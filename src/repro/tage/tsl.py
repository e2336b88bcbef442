"""TAGE-SC-L: composition of the TAGE core, loop predictor, and SC.

The prediction pipeline is decomposed into stages --
:meth:`TageSCL.base_predict` (TAGE + loop) and :meth:`TageSCL.apply_sc`
-- because LLBP interposes *between* them: the pattern buffer competes
with TAGE's provider before the statistical corrector sees the combined
result (and the original LLBP suppresses the SC entirely when it
provides; see ``repro.llbp.llbp``).  :meth:`predict`/:meth:`update` give
the plain standalone-TSL behaviour and are the test oracle.

The simulation kernel, :attr:`TageSCL.step`, is the TSL lane tail over a
recorded TAGE+loop base stream (:mod:`repro.tage.batched_state`).  A TSL
has no unconditional-record work (:attr:`TageSCL.ub_step` is ``None``),
so a simulation driving ``step`` skips those records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.stats import StatGroup
from repro.tage.batched_state import SharedBase, StepFn, UBStepFn, instrumented
from repro.tage.config import TageConfig
from repro.tage.loop_predictor import LoopPrediction, LoopPredictor
from repro.tage.statistical_corrector import SCPrediction, StatisticalCorrector
from repro.tage.streams import TraceTensors
from repro.tage.tage import TageCore, TagePrediction


@dataclass
class TSLPrediction:
    """Full record of one TAGE-SC-L prediction."""

    pred: bool  # final direction
    tage: TagePrediction
    loop: Optional[LoopPrediction]
    sc: Optional[SCPrediction]
    base_pred: bool  # TAGE+loop prediction, before the SC

    @property
    def provider_length(self) -> int:
        return self.tage.provider_length


class TageSCL:
    """A complete TAGE-SC-L instance bound to one trace.

    ``base`` optionally passes a :class:`SharedBase` that other lanes
    share (:mod:`repro.core.batched`); its core and loop are this TSL's
    ``tage``/``loop``.  Without one, the TSL owns a base of its own.
    """

    #: no unconditional-record kernel: :meth:`on_unconditional` is a no-op
    ub_step: Optional[UBStepFn] = None

    def __init__(
        self, config: TageConfig, tensors: TraceTensors, base: Optional[SharedBase] = None
    ) -> None:
        self.config = config
        self.name = config.name
        self.base = base if base is not None else SharedBase(config, tensors)
        self.sc = StatisticalCorrector(config, tensors) if config.use_sc else None
        self.stats = StatGroup(f"tsl[{config.name}]")
        self._step: Optional[StepFn] = None

    @property
    def tage(self) -> TageCore:
        """The base's TAGE core (built on first use; the tail never reads it)."""
        return self.base.core

    @property
    def loop(self) -> Optional[LoopPredictor]:
        """The base's loop predictor, built with :attr:`tage`."""
        return self.base.loop

    @property
    def step(self) -> StepFn:
        """The simulation kernel ``step(t, pc, taken) -> mispredicted``.

        The TSL tail over the base stream; the first use records the base
        over the whole trace unless a stream was recorded or adopted.
        """
        if self._step is None:
            self._step = instrumented(self, self.base.build_tsl_tail(self))
        return self._step

    def telemetry_sample(self) -> Dict[str, float]:
        """Periodic sampler payload: the TAGE core's internals."""
        return {"tage.%s" % key: value for key, value in self.tage.telemetry_sample().items()}

    # -- staged prediction (used directly by the LLBP wrappers) -----------------

    def base_predict(self, t: int, pc: int) -> TSLPrediction:
        """TAGE lookup plus loop-predictor override; no SC yet."""
        tage_pred = self.tage.predict(t, pc)
        pred = tage_pred.pred
        loop_pred = None
        if self.loop is not None:
            loop_pred = self.loop.predict(pc)
            if loop_pred.valid:
                pred = loop_pred.pred
        return TSLPrediction(pred=pred, tage=tage_pred, loop=loop_pred, sc=None, base_pred=pred)

    def apply_sc(self, t: int, pc: int, prediction: TSLPrediction, pred: bool, conf: int) -> bool:
        """Run the statistical corrector over ``pred`` and record its result."""
        if self.sc is None:
            return pred
        sc_result = self.sc.predict(t, pc, pred, conf)
        prediction.sc = sc_result
        return sc_result.pred

    def base_update(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        """Train loop predictor and TAGE core (SC trained separately)."""
        tage_mispredicted = prediction.tage.pred != taken
        if self.loop is not None:
            self.loop.update(pc, taken, tage_mispredicted)
        self.tage.update(t, pc, taken, prediction.tage)

    def update_sc(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        if self.sc is not None and prediction.sc is not None:
            self.sc.update(t, pc, taken, prediction.sc)

    # -- standalone operation ----------------------------------------------------

    def predict(self, t: int, pc: int) -> TSLPrediction:
        prediction = self.base_predict(t, pc)
        final = self.apply_sc(t, pc, prediction, prediction.pred, prediction.tage.confidence)
        prediction.pred = final
        return prediction

    def update(self, t: int, pc: int, taken: bool, prediction: TSLPrediction) -> None:
        if prediction.pred != taken:
            self.stats.add("mispredictions")
        if prediction.pred != prediction.tage.bim_pred:
            self.stats.add("fast_path_overrides")
        self.stats.add("predictions")
        self.update_sc(t, pc, taken, prediction)
        self.base_update(t, pc, taken, prediction)

    def on_unconditional(self, t: int, pc: int, target: int) -> None:
        """Unconditional branches need no state change: streams are precomputed."""

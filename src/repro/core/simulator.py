"""The trace-driven simulation loop.

Mirrors the paper's methodology (§VI): a warmup window trains the
predictor, then mispredictions are counted over the measurement window.
The loop itself is predictor-agnostic -- anything exposing
``predict(t, pc) -> prediction-with-.pred``, ``update(t, pc, taken,
prediction)`` and ``on_unconditional(t, pc, target)`` can be simulated,
which is exactly the interface of :class:`repro.tage.TageSCL` and the
LLBP wrappers.

Predictors may additionally expose a pair of kernels: ``step(t, pc,
taken) -> mispredicted``, performing lookup and training in one call,
and ``ub_step(start, end)``, running one run of unconditional records
(``None`` when those records need no work).  When present the loop
drives them instead of ``predict``/``update``/``on_unconditional``.
Every shipped predictor's ``step`` is its lane tail over a recorded
TAGE+loop base stream (:mod:`repro.tage.batched_state`);
``predict``/``update``/``on_unconditional`` drive the same components
live and are the oracle the tails are tested against
(``tests/test_step_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol

from repro.common.stats import mpki
from repro.tage.streams import TraceTensors
from repro.traces.record import Trace

class Predictor(Protocol):
    """Structural interface the simulation loop drives."""

    name: str

    def predict(self, t: int, pc: int) -> object: ...

    def update(self, t: int, pc: int, taken: bool, prediction: object) -> None: ...

    def on_unconditional(self, t: int, pc: int, target: int) -> None: ...


@dataclass
class SimulationResult:
    """Outcome of simulating one predictor over one trace."""

    workload: str
    predictor: str
    instructions: int  # measurement-window instructions
    conditional_branches: int
    mispredictions: int
    warmup_mispredictions: int
    total_instructions: int
    stats: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        return mpki(self.mispredictions, self.instructions)

    @property
    def miss_rate(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    def summary(self) -> str:
        return (
            f"{self.workload:>14s} | {self.predictor:<18s} | "
            f"MPKI {self.mpki:6.3f} | miss {100 * self.miss_rate:5.2f}%"
        )


def simulate(
    predictor: Predictor,
    trace: Trace,
    tensors: Optional[TraceTensors] = None,
    warmup_fraction: float = 0.25,
    use_step: Optional[bool] = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return measured statistics.

    ``warmup_fraction`` of the records train the predictor without being
    counted, mirroring the paper's warmup/measurement split.

    ``use_step`` selects the hot-path kernels: ``None`` (default) uses
    the predictor's ``step`` and ``ub_step`` when it has them, ``True``
    requires them, and ``False`` forces the ``predict``/``update``/
    ``on_unconditional`` path (the test oracle; it never records a base
    stream).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if tensors is None:
        tensors = TraceTensors(trace)

    # Python-list views of the columns (cached on the trace): plain-int
    # indexing is fastest for the per-branch loop, and numpy scalar types
    # from array/mmap-backed traces must not leak into predictor hashing.
    pcs, takens, targets = trace.aslists("pcs", "taken", "targets")
    n = len(pcs)
    warmup_end = int(n * warmup_fraction)

    step = getattr(predictor, "step", None) if use_step is not False else None
    if use_step is True and step is None:
        raise ValueError(f"predictor {predictor.name!r} has no fused step kernel")
    ub_step = predictor.ub_step if step is not None else None
    predict = predictor.predict
    update = predictor.update
    on_unconditional = predictor.on_unconditional

    mispredictions = 0
    warmup_mispredictions = 0
    cond_measured = 0

    # Iterate precomputed same-kind runs instead of testing the kind per
    # record, and split conditional runs at the warmup boundary so the
    # measurement-window test also leaves the inner loop.  Identical
    # counting to the per-record loop (tests/test_simulator_runs.py).
    for start, end, is_cond in tensors.kind_runs():
        if not is_cond:
            if step is None:
                for t in range(start, end):
                    on_unconditional(t, pcs[t], targets[t])
            elif ub_step is not None:
                ub_step(start, end)
            continue
        split = min(max(start, warmup_end), end)
        if step is not None:
            for t in range(start, split):
                if step(t, pcs[t], takens[t]):
                    warmup_mispredictions += 1
            for t in range(split, end):
                if step(t, pcs[t], takens[t]):
                    mispredictions += 1
        else:
            for t in range(start, split):
                pc = pcs[t]
                taken = takens[t]
                prediction = predict(t, pc)
                if prediction.pred != taken:
                    warmup_mispredictions += 1
                update(t, pc, taken, prediction)
            for t in range(split, end):
                pc = pcs[t]
                taken = takens[t]
                prediction = predict(t, pc)
                if prediction.pred != taken:
                    mispredictions += 1
                update(t, pc, taken, prediction)
        cond_measured += end - split

    instr = tensors.instr_index
    total_instr = int(instr[-1]) if n else 0
    warmup_instr = int(instr[warmup_end - 1]) if warmup_end > 0 else 0

    result = SimulationResult(
        workload=trace.name,
        predictor=predictor.name,
        instructions=total_instr - warmup_instr,
        conditional_branches=cond_measured,
        mispredictions=mispredictions,
        warmup_mispredictions=warmup_mispredictions,
        total_instructions=total_instr,
    )
    stats = getattr(predictor, "stats", None)
    if stats is not None:
        result.stats = stats.as_dict()
    collect_extra = getattr(predictor, "collect_extra", None)
    if collect_extra is not None:
        result.extra = collect_extra()
    return result

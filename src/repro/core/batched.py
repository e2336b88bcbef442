"""Shared-base groups: one base stream per bundle and base config, one tail per lane.

Every simulated cell runs as a lane tail over a TAGE+loop base stream
(see :mod:`repro.tage.batched_state`).  Cells over one workload bundle
whose predictors share a base :class:`~repro.tage.config.TageConfig` --
a Fig-16 capacity sweep's LLBP-X lanes, or a ``tsl_64k``/``llbp``/
``llbpx`` column -- run as one *group*: the group records the base
stream once, then runs each lane's tail over it (SC, pattern
store/buffer, CTT).  A lone cell is a one-lane group.  The group takes
its base from :meth:`Runner.shared_base <repro.core.runner.Runner.shared_base>`,
which records a stream once per runner and (workload, base config) and
memoises it, so a later group over the same base -- in the same
``run_cells`` call, a later harness, or a pool worker seeded with the
parent's memo -- adopts it and runs tail-only.  With an
:class:`~repro.core.artifacts.ArtifactStore` attached the recording is
also persisted and the base is paid once *ever* per (bundle, base
config): later runs adopt the stored stream.

Why record/replay rather than numpy-stacked lane state: at realistic
lane counts (2-8) the per-branch cost of even one vectorised
gather/scatter (~0.5-1us in numpy) exceeds a whole Python tail step,
so stacking loses throughput, while record/replay removes the genuinely
redundant work -- the base is ~55% of a TSL step and every lane of a
group would repeat it.  The numpy array holding the recorded stream *is*
the stacked state's degenerate (shared) axis.

``llbpx_optw`` has no base config of its own here: it is its own task,
whose three LLBP-X passes share one base (``Runner._run_optw``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.simulator import SimulationResult, simulate
from repro.llbp.config import LLBPConfig, llbp_default, llbpx_default
from repro.obs.metrics import registry as obs_registry
from repro.obs.spans import span
from repro.tage.config import TageConfig, preset_by_name

if TYPE_CHECKING:
    from repro.core.runner import Cell, Runner, WorkloadBundle
    from repro.tage.batched_state import SharedBase

#: LLBP-family configuration names -> config factory; all run over the
#: 64K TSL, and ``llbpx_optw``'s passes are built from the llbpx config
LLBP_FAMILY = {
    "llbp": llbp_default,
    "llbp_0lat": llbp_default,
    "llbpx": llbpx_default,
    "llbpx_0lat": llbpx_default,
    "llbpx_optw": llbpx_default,
}


def resolve_configs(
    name: str, scale: int, overrides: Optional[Mapping[str, object]] = None
) -> Tuple[TageConfig, Optional[LLBPConfig]]:
    """The ``(base TageConfig, LLBP/LLBP-X config)`` a named cell runs.

    The design config is ``None`` for a TSL preset, and carries the
    cell's ``overrides`` otherwise.  ``Runner.build_predictor`` and the
    result-cache key both resolve through here, so the key always covers
    the configuration that actually ran.  Raises ``KeyError`` for an
    unknown name.
    """
    if name.startswith("tsl_"):
        return preset_by_name(name, scale=scale), None
    if name not in LLBP_FAMILY:
        raise KeyError(f"unknown predictor configuration {name!r}")
    factory = LLBP_FAMILY[name]
    overrides = dict(overrides or {})
    if name.endswith("_0lat"):
        design = replace(factory(scale=scale, zero_latency=True, **overrides), name=name)
    else:
        design = factory(scale=scale, **overrides)
    return preset_by_name("tsl_64k", scale=scale), design


def base_config(name: str, scale: int) -> Optional[TageConfig]:
    """The base TAGE configuration a cell's tail replays, or ``None``.

    ``None`` marks the cells that are not grouped: ``llbpx_optw`` (its
    own task) and unknown names.
    """
    if name == "llbpx_optw":
        return None
    try:
        return resolve_configs(name, scale)[0]
    except KeyError:
        return None


@dataclass
class BatchPlan:
    """Partition of cells into shared-base groups and ungrouped cells.

    ``groups`` hold cells of one workload sharing a base config (each a
    task); ``singles`` are the cells without one.
    """

    groups: List[List["Cell"]]
    singles: List["Cell"]

    @property
    def fallbacks(self) -> int:
        """Ungrouped cells (the ``backend.fallbacks`` metric)."""
        return len(self.singles)

    @property
    def lanes(self) -> int:
        return sum(len(group) for group in self.groups)


def plan_batches(cells: Sequence["Cell"], scale: int) -> BatchPlan:
    """Group cells by workload and shared base configuration.

    Every cell with a base config joins a group, so a lone cell is a
    one-lane group.  Order inside a group and among singles follows
    first appearance.
    """
    by_base: Dict[Tuple[str, TageConfig], List["Cell"]] = {}
    singles: List["Cell"] = []
    for cell in cells:
        config = base_config(cell[1], scale)
        if config is None:
            singles.append(cell)
        else:
            by_base.setdefault((cell[0], config), []).append(cell)
    return BatchPlan(groups=list(by_base.values()), singles=singles)


@dataclass
class LaneOutcome:
    """One lane's result within a group.

    ``seconds`` is the lane's attributable wall time: its own tail
    simulation plus an equal share of the group's base pass -- the
    number the run report records for the cell.
    """

    cell: "Cell"
    result: SimulationResult
    seconds: float
    #: whether the group's base stream was adopted -- from the runner's
    #: memo or the artifact store (tail-only replay) -- instead of
    #: freshly recorded
    base_warm: bool = False
    #: the lane's predictor instance (full final table state, for
    #: equivalence tests); dropped before results cross process borders
    predictor: Optional[object] = None


def run_group(runner: "Runner", workload: str, cells: Sequence["Cell"]) -> Iterator[LaneOutcome]:
    """Execute one group: the base once, then each lane's tail.

    Every cell must share ``base_config`` (callers use
    :func:`plan_batches`).  The base comes from ``runner.shared_base``:
    when the runner's memo or its artifact store holds this (bundle,
    base config) stream, the base pass is skipped entirely -- the stream
    is adopted and only the lane tails run; otherwise it is recorded,
    memoised and, with a store, persisted.  Per-lane *results* -- counts,
    stats, extra -- are bit-identical either way; final predictor *table
    state* matches a predictor that ran its own base only on the record
    path (an adopted base never builds its core/loop, which tails never
    read).

    A generator: each lane's outcome is yielded as soon as its tail
    finishes, so a caller that consumes outcomes as they come holds one
    lane's predictor at a time, not the whole group's.
    """
    cells = list(cells)
    config = base_config(cells[0][1], runner.config.scale)
    if config is None:
        raise ValueError(f"cell {cells[0][1]!r} has no base config to group on")
    registry = obs_registry()
    with span("backend.batched", workload=workload, lanes=len(cells), base=config.name):
        group_start = time.perf_counter()
        bundle = runner.bundle(workload)
        shared = runner.shared_base(workload, config)
        registry.counter("backend.base_bytes").inc(shared.footprint_bytes())
        base_seconds = time.perf_counter() - group_start
        base_share = base_seconds / len(cells)
        registry.counter("backend.batched.groups").inc()
        registry.counter("backend.batched.lanes").inc(len(cells))
        registry.histogram("backend.batched.group_lanes").observe(len(cells))
        for cell in cells:
            yield _run_lane(runner, bundle, shared, cell, base_share)


def _run_lane(
    runner: "Runner",
    bundle: "WorkloadBundle",
    shared: "SharedBase",
    cell: "Cell",
    base_share: float,
) -> LaneOutcome:
    """One lane of :func:`run_group`: build the predictor over ``shared`` and run its tail.

    A function of its own so that the generator's frame holds no lane's
    predictor while the caller consumes an outcome or the next lane builds.
    """
    workload, name, overrides = cell
    registry = obs_registry()
    with span("cell", workload=workload, config=name):
        lane_start = time.perf_counter()
        predictor = runner.build_predictor(name, bundle, base=shared, **overrides)
        with span("simulate", workload=workload, config=name):
            result = simulate(
                predictor,
                bundle.trace,
                bundle.tensors,
                warmup_fraction=runner.config.warmup_fraction,
                use_step=True,
            )
        result.predictor = name
        elapsed = (time.perf_counter() - lane_start) + base_share
        runner.sim_count += 1
        runner.sim_seconds += elapsed
        registry.counter("runner.simulations").inc()
        registry.counter("runner.branches").inc(runner.config.num_branches)
        registry.histogram("cell.seconds").observe(elapsed)
    return LaneOutcome(
        cell=cell, result=result, seconds=elapsed, base_warm=shared.adopted, predictor=predictor
    )

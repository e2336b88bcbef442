"""Process-parallel execution of experiment matrices.

Every figure the paper reports is a matrix of (workload x predictor
configuration) simulations; this module fans the *uncached* cells of such
a matrix out over a :class:`concurrent.futures.ProcessPoolExecutor`.

Scheduling is **group-granular**: one task per shared-base group -- a
workload's cells sharing a base TAGE config, run over one base stream
(:mod:`repro.core.batched`) -- or per ungrouped cell, submitted
longest-expected-first.  Expected cost comes from a
:class:`CostModel` -- trace length x configuration weight, refined by
observed cell timings persisted alongside the result cache
(:class:`~repro.core.results_io.TimingStore`) -- and ordering affects
*wall-clock only*, never results.

Workers amortise bundle construction two ways: a process-global
:class:`~repro.core.runner.Runner` keeps the most recently used bundles
alive across the cells a worker executes (LRU-bounded), and when an
``artifact_dir`` is given every worker resolves bundles through the
shared :class:`~repro.core.artifacts.ArtifactStore` -- an mmap + wrap
whose pages all workers share -- instead of regenerating traces
privately.

Determinism: each cell's result is a pure function of ``(RunnerConfig,
workload, config name, overrides)`` -- trace generation is seeded and the
predictors draw no ambient randomness -- so results are bit-identical to
the serial path regardless of scheduling order, worker count, or cost
model.  ``tests/test_parallel.py`` pins this.

Crash safety comes from the result cache, not from retries: the parent
admits every finished task's results to the memo and the result cache
as they arrive, so a run that dies -- a worker killed, a cell raising,
a Ctrl-C -- resumes on rerun over the same cache, simulating only the
missing cells.  :func:`run_cells_parallel` kills the pool before any
error propagates, so a failed or abandoned matrix never leaves workers
behind.
"""


from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.batched import base_config, plan_batches, run_group
from repro.core.costmodel import (  # noqa: F401  (re-exported for compat)
    BASE_WARM_KEY,
    BATCHED_KEY,
    CONFIG_WEIGHTS,
    _SECONDS_PER_BRANCH,
    CostModel,
    LearnedCostModel,
    config_weight,
    make_cost_model,
)
from repro.core.simulator import SimulationResult
from repro.obs.log import get_logger
from repro.obs.metrics import registry as obs_registry
from repro.obs.telemetry import emit_event
from repro.obs.telemetry import ensure as obs_ensure
from repro.obs.telemetry import flush as obs_flush

logger = get_logger("parallel")

#: ``(telemetry directory, sample interval)`` shipped to workers
TelemetryConfig = Tuple[str, int]

#: one cell-granular unit of work: ``(workload, config name, overrides)``
Cell = Tuple[str, str, Mapping[str, object]]

#: bundles a worker process keeps alive across cells (LRU)
MAX_WORKER_BUNDLES = 4


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Cancel queued work and terminate the workers without waiting."""
    # snapshot the workers first: shutdown() drops the _processes dict
    # even with wait=False, and a worker left unterminated keeps the
    # interpreter's atexit join blocked until its task finishes
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown of a broken pool
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


# -- worker side ---------------------------------------------------------------

#: process-global runner state: ``(key, Runner)`` reused across the cells
#: this worker executes, so bundles survive between same-workload cells
_WORKER_STATE: Dict[str, object] = {"key": None, "runner": None}


def _worker_runner(config: "RunnerConfig", artifact_dir: Optional[str]):
    """The process-global worker Runner (rebuilt when the config changes).

    No disk *result* cache is attached -- the parent filters cached cells
    before dispatch and persists worker results itself, so workers never
    race on result files.  The artifact store, by contrast, is safe and
    profitable to share: loads are mmap-backed and writes are atomic.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.core.runner import Runner

    key = (config, artifact_dir)
    if _WORKER_STATE["key"] != key:
        artifacts = ArtifactStore(artifact_dir) if artifact_dir else None
        _WORKER_STATE["key"] = key
        _WORKER_STATE["runner"] = Runner(config, artifacts=artifacts)
    return _WORKER_STATE["runner"]


def _trim_worker_bundles(runner, workload: str, config: "RunnerConfig") -> None:
    """LRU-bound the bundles a worker keeps: re-admit ``workload`` as most
    recent, then drop the oldest beyond the cap."""
    bundle_key = (workload, config.num_branches, config.seed)
    bundle = runner._bundles.pop(bundle_key, None)
    if bundle is not None:
        runner._bundles[bundle_key] = bundle
    while len(runner._bundles) > MAX_WORKER_BUNDLES:
        runner._bundles.pop(next(iter(runner._bundles)))


@dataclass(frozen=True)
class _Task:
    """One schedulable unit: a shared-base group or an ungrouped cell.

    ``grouped`` tasks hold cells of one workload sharing a base
    TageConfig (:func:`repro.core.batched.run_group`); an ungrouped task
    is one ``llbpx_optw`` cell.  ``base_warm`` is the planner's
    prediction that the group's base stream is persisted (tail-only
    replay) -- it sharpens the cost estimate; the worker reports the
    actual warmth per lane.
    """

    cells: Tuple[Cell, ...]
    grouped: bool = True
    base_warm: bool = False


def simulate_task(
    config: "RunnerConfig",
    cells: Sequence[Cell],
    artifact_dir: Optional[str] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[Tuple[Cell, SimulationResult, float, bool]]:
    """Worker entry point: execute one task; returns per-cell records.

    ``(cell, result, seconds, base_warm)`` per member, where a grouped
    lane's seconds are its tail plus an equal share of the group's base
    pass (the cost the scheduler should learn under the ``batched`` --
    or, when the base stream was adopted from the artifact store,
    ``batched+warm`` -- key).  The measured seconds include any bundle
    build/load the task paid for.

    ``telemetry`` attaches this worker to the run's telemetry directory
    (per-pid event/metrics files; see :mod:`repro.obs`).  The metrics
    snapshot is flushed after *every* completed task, so a worker later
    killed mid-run leaves exactly the counts of the tasks it finished.
    """
    if telemetry is not None:
        obs_ensure(telemetry[0], sample_interval=telemetry[1])
    runner = _worker_runner(config, artifact_dir)
    workload = cells[0][0]
    out: List[Tuple[Cell, SimulationResult, float, bool]] = []
    plan = plan_batches([(w, n, dict(o)) for w, n, o in cells], config.scale)
    for group in plan.groups:
        for outcome in run_group(runner, group[0][0], group):
            out.append((outcome.cell, outcome.result, outcome.seconds, outcome.base_warm))
    for cell in plan.singles:
        start = time.perf_counter()
        result = runner.run_one(cell[0], cell[1], use_cache=False, **cell[2])
        out.append((cell, result, time.perf_counter() - start, False))
    if telemetry is not None:
        obs_flush()
    _trim_worker_bundles(runner, workload, config)
    return out


# -- parent side ---------------------------------------------------------------


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve a requested job count against the machine's cores.

    ``0``/``None`` means *auto* (one job per core).  Requests beyond
    ``os.cpu_count()`` are clamped with a warning: oversubscribed pools
    measurably regress (the BENCH matrix showed ``jobs=2`` at 0.58x of
    ``jobs=1`` on a 1-CPU box -- pure scheduling thrash).
    """
    available = os.cpu_count() or 1
    if not jobs:
        return available
    if jobs > available:
        logger.warning(
            "requested %d jobs on a %d-CPU machine; clamping to %d workers "
            "(oversubscription runs slower, not faster)",
            jobs,
            available,
            available,
        )
        obs_registry().counter("parallel.jobs_clamped").inc()
        return available
    return jobs


def plan_tasks(
    cells: Sequence[Cell],
    config: "RunnerConfig",
    base_warm: Optional[Callable[[str, object], bool]] = None,
) -> List[_Task]:
    """Partition cells into schedulable tasks.

    Each workload's cells sharing a base TageConfig become one grouped
    task; the ungrouped rest (``llbpx_optw``) are single-cell tasks,
    counted on ``backend.fallbacks``.  ``base_warm(workload,
    base_config)`` predicts whether a group's base stream is persisted,
    which selects its cost-estimate key.
    """
    plan = plan_batches(cells, config.scale)
    tasks: List[_Task] = []
    for group in plan.groups:
        warm = False
        if base_warm is not None:
            warm = base_warm(group[0][0], base_config(group[0][1], config.scale))
        tasks.append(_Task(cells=tuple(group), base_warm=warm))
    for cell in plan.singles:
        tasks.append(_Task(cells=(cell,), grouped=False))
    if plan.fallbacks:
        obs_registry().counter("backend.fallbacks").inc(plan.fallbacks)
    return tasks


def run_cells_parallel(
    config: "RunnerConfig",
    cells: Sequence[Cell],
    jobs: int,
    artifact_dir: Optional[str] = None,
    cost_model: Optional[CostModel] = None,
    report=None,
    telemetry: Optional[TelemetryConfig] = None,
    base_warm: Optional[Callable[[str, object], bool]] = None,
) -> Iterator[Tuple[Cell, SimulationResult]]:
    """Fan cells out over ``jobs`` processes, longest-expected-first.

    Cells of one workload sharing a base TageConfig travel as one task
    (:func:`plan_tasks`): one worker runs their base once and every lane
    tail (:mod:`repro.core.batched`).  Yields ``(cell, result)`` pairs as
    tasks complete (arbitrary order -- the caller re-associates), so
    progress reporting works while later cells are still running.
    Observed timings feed back into the cost model (persisted on exit)
    under the ``batched`` or ``batched+warm`` key; ``report`` (a
    :class:`~repro.core.run_report.RunReport`) receives per-cell timings,
    batched groups and the cost model's predictions.

    Nothing is retried.  When a task raises, or a worker dies
    (``BrokenProcessPool``), the results of every task that completed in
    the same wait are yielded first; then the pool is killed and the
    exception re-raised.  A caller that persists what it is handed (the
    runner's result cache) therefore resumes on rerun.  A Ctrl-C, or the
    caller abandoning the iterator (the experiment service cancelling a
    job), kills the pool as well and counts as an interrupt.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not cells:
        return
    model = cost_model or CostModel()

    #: per-cell predicted seconds captured at ordering time, so completed
    #: cells can be scored predicted-vs-actual in the run report
    predictions: Dict[Tuple[str, str], float] = {}

    def task_estimate(task: _Task) -> float:
        # warm replay costs systematically less: its own timing key
        key = BASE_WARM_KEY if task.base_warm else BATCHED_KEY
        total = 0.0
        for workload, name, _ in task.cells:
            estimate = model.estimate(workload, name, config.num_branches, key)
            predictions[(workload, name)] = estimate
            total += estimate
        return total

    ordered: List[_Task] = sorted(
        plan_tasks(cells, config, base_warm=base_warm), key=task_estimate, reverse=True
    )
    if report is not None:
        report.cost_model_kind = getattr(model, "kind", "heuristic")

    def book(task: _Task, records) -> Iterator[Tuple[Cell, SimulationResult]]:
        """Timings, report records and results of one completed task."""
        if task.grouped and report is not None:
            report.record_batched_group(len(task.cells))
        for (workload, name, overrides), result, seconds, lane_warm in records:
            # the worker's actual warmth wins over the planner's guess
            observe_key = BASE_WARM_KEY if lane_warm else BATCHED_KEY
            model.observe(workload, name, seconds, observe_key, branches=config.num_branches)
            if report is not None:
                report.record_success(workload, name, overrides, seconds, base_warm=lane_warm)
                predicted = predictions.get((workload, name))
                if predicted is not None:
                    report.record_prediction(predicted, seconds)
            yield (workload, name, overrides), result

    # the *pool* is bounded by real cores even when the caller asked for more
    pool = ProcessPoolExecutor(max_workers=max(1, min(effective_jobs(jobs), len(ordered))))
    inflight: Dict[Future, _Task] = {}
    interrupted = False
    try:
        # the executor hands queued tasks to workers in submission order
        for task in ordered:
            try:
                future = pool.submit(
                    simulate_task, config, list(task.cells), artifact_dir, telemetry
                )
            except BrokenProcessPool:
                break  # a worker already died; collecting what was submitted raises it
            inflight[future] = task
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            failure: Optional[BaseException] = None
            for future in done:
                task = inflight.pop(future)
                try:
                    records = future.result()
                except Exception as exc:  # a raising task or a dead worker
                    failure = failure or exc
                    continue
                yield from book(task, records)
            if failure is not None:
                raise failure
    except (KeyboardInterrupt, GeneratorExit):
        # Ctrl-C in the parent, or the caller abandoning the iterator:
        # an interrupted matrix must never leave a pool alive behind it
        interrupted = True
        raise
    finally:
        _kill_pool(pool)
        if interrupted:
            if report is not None:
                report.record_interrupted()
            obs_registry().counter("parallel.interrupts").inc()
            emit_event("run-interrupted", inflight=len(inflight))
            logger.warning("interrupted: cancelled %d unfinished tasks", len(inflight))
        model.save()

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

Fault tolerance: campaign-scale matrices must survive partial failure,
so :func:`run_cells_parallel` wraps every cell in a retry loop (capped
exponential backoff), optionally bounds each cell's wall-clock with a
per-cell timeout, recovers from ``BrokenProcessPool`` (a worker OOM-kill
takes down the whole stdlib pool) by rebuilding the pool and re-queueing
the in-flight cells, and degrades to in-process serial execution after
repeated consecutive pool failures.  None of this can affect results:
cells are pure functions of their key, so a retried cell reproduces its
result bit-identically (``tests/test_faults.py`` pins this under
injected crashes).  On an *unrecoverable* error (retry budget exhausted)
the pool is shut down with ``cancel_futures=True`` before the exception
propagates, so a failed matrix -- or a Ctrl-C -- never hangs on its
tail of pending futures.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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
from repro.core.faults import active_injector
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


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for one matrix execution.

    ``retries`` is the number of *re*-executions a single cell may
    consume for its own failures (crash, raised exception, timeout)
    before the run gives up; ``backoff`` / ``backoff_cap`` shape the
    capped exponential delay before a failed cell re-enters the queue.
    ``timeout`` (seconds, ``None`` = off) bounds one cell execution --
    exceeding it kills the pool (stdlib workers cannot be cancelled
    mid-task) and charges the overdue cell.  After
    ``pool_failure_limit`` *consecutive* ``BrokenProcessPool`` incidents
    the run degrades to in-process serial execution, on the theory that
    a pool that keeps dying (e.g. the machine is out of memory for
    worker processes) is worse than no pool.
    """

    retries: int = 3
    backoff: float = 0.1
    backoff_cap: float = 5.0
    timeout: Optional[float] = None
    pool_failure_limit: int = 3


class CellExecutionError(RuntimeError):
    """A cell exhausted its retry budget; the matrix cannot complete."""

    def __init__(self, cell: Cell, kind: str, detail: str, attempts: int) -> None:
        self.cell = cell
        self.kind = kind
        self.detail = detail
        self.attempts = attempts
        super().__init__(
            f"cell {cell[0]}/{cell[1]} failed ({kind}) after {attempts} attempts: {detail}"
        )


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Shut a pool down without waiting; cancel queued work.

    ``kill`` also terminates the worker processes -- required when a
    worker is wedged on a hung cell (``shutdown`` alone would block
    process exit on the stuck task).
    """
    # snapshot the workers first: shutdown() drops the _processes dict
    # even with wait=False, and a wedged worker left unterminated keeps
    # the interpreter's atexit join blocked until its cell finishes
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown of a broken pool
        pass
    if kill:
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


def simulate_cell(
    config: "RunnerConfig",
    workload: str,
    name: str,
    overrides: Mapping[str, object],
    artifact_dir: Optional[str] = None,
    in_worker: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> Tuple[SimulationResult, float]:
    """Worker entry point: simulate one cell; returns (result, seconds).

    The measured seconds include any bundle build/load this cell paid
    for, which is exactly the marginal cost the scheduler's cost model
    wants to learn.  Consults the fault injector (``REPRO_FAULT_SPEC``)
    first, so injected crashes/hangs land exactly where real ones do --
    inside a cell execution; ``in_worker=False`` (the serial-fallback
    path) keeps injected crashes from taking out the parent process.

    ``telemetry`` attaches this worker to the run's telemetry directory
    (per-pid event/metrics files; see :mod:`repro.obs`).  The metrics
    snapshot is flushed after *every* completed cell, so a worker later
    killed mid-run leaves exactly the counts of the cells it finished.
    """
    injector = active_injector()
    if injector is not None:
        injector.fire(workload, name, in_worker=in_worker)
    if telemetry is not None and in_worker:
        obs_ensure(telemetry[0], sample_interval=telemetry[1])
    runner = _worker_runner(config, artifact_dir)
    start = time.perf_counter()
    result = runner.run_one(workload, name, use_cache=False, **dict(overrides))
    seconds = time.perf_counter() - start
    if telemetry is not None and in_worker:
        obs_flush()
    _trim_worker_bundles(runner, workload, config)
    return result, seconds


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

    @property
    def workload(self) -> str:
        return self.cells[0][0]

    def label(self) -> str:
        if len(self.cells) == 1:
            return f"{self.cells[0][0]}/{self.cells[0][1]}"
        return f"{self.workload}/[{'+'.join(name for _, name, _ in self.cells)}]"


def simulate_task(
    config: "RunnerConfig",
    cells: Sequence[Cell],
    artifact_dir: Optional[str] = None,
    in_worker: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[Tuple[Cell, SimulationResult, float, bool]]:
    """Worker entry point: execute one task; returns per-cell records.

    ``(cell, result, seconds, base_warm)`` per member, where a grouped
    lane's seconds are its tail plus an equal share of the group's base
    pass (the cost the scheduler should learn under the ``batched`` --
    or, when the base stream was adopted from the artifact store,
    ``batched+warm`` -- key).  The fault injector consults *every*
    member, so a fault spec targeting any lane of a group fires exactly
    as it would have on that cell's standalone execution.
    """
    injector = active_injector()
    if injector is not None:
        for workload, name, _ in cells:
            injector.fire(workload, name, in_worker=in_worker)
    if telemetry is not None and in_worker:
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
    if telemetry is not None and in_worker:
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
    policy: Optional[RetryPolicy] = None,
    report=None,
    telemetry: Optional[TelemetryConfig] = None,
    base_warm: Optional[Callable[[str, object], bool]] = None,
) -> Iterator[Tuple[Cell, SimulationResult]]:
    """Fan cells out over ``jobs`` processes, longest-expected-first.

    Yields ``(cell, result)`` pairs as cells complete (arbitrary order --
    the caller re-associates), so progress reporting works while later
    cells are still running.  Observed timings feed back into the cost
    model (persisted on completion) under the ``batched`` or
    ``batched+warm`` key.

    Cells of one workload sharing a base TageConfig travel as one task
    (:func:`plan_tasks`) -- one worker runs their base once and every
    lane tail (:mod:`repro.core.batched`) -- and retry/timeout handling
    treats the task as a unit.

    Execution is fault-tolerant per ``policy`` (see :class:`RetryPolicy`):

    * a worker **exception** charges the cell and re-queues it after a
      capped exponential backoff;
    * a **pool break** (worker process died -- OOM kill, segfault,
      injected crash) charges every in-flight cell (the stdlib gives no
      finer attribution), rebuilds the pool, and re-queues them; after
      ``pool_failure_limit`` consecutive breaks the remaining cells run
      in-process (serial fallback);
    * a **timeout** (when ``policy.timeout`` is set) charges only the
      overdue cell; other in-flight cells are re-queued as
      *interruptions* that do not consume their retry budget (the pool
      must be killed to reclaim the wedged worker).

    A cell whose retry budget is exhausted raises
    :class:`CellExecutionError`; the pool is torn down with
    ``cancel_futures=True`` first, so neither an error nor a caller
    abandoning the iterator leaves pending futures running.  Retries
    cannot change results: every cell is a pure function of its key.
    ``report`` (a :class:`~repro.core.run_report.RunReport`) receives
    per-cell attempt/failure/success records when provided.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not cells:
        return
    policy = policy or RetryPolicy()
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
    # the *pool* is bounded by real cores even when the caller asked for
    # more -- the jobs>1 dispatch path (and its fault handling) is kept,
    # only the worker count is clamped
    max_workers = max(1, min(effective_jobs(jobs), len(ordered)))
    attempts = [0] * len(ordered)
    #: (task index, earliest re-dispatch time) -- backoff lives here
    pending: Deque[Tuple[int, float]] = deque((i, 0.0) for i in range(len(ordered)))
    inflight: Dict[Future, Tuple[int, Optional[float]]] = {}
    #: submission time per in-flight future, feeding the queue-to-done
    #: latency histogram (dispatch wait + execution, the figure the
    #: scheduler's cost model is trying to predict)
    submit_ts: Dict[Future, float] = {}
    pool: Optional[ProcessPoolExecutor] = None
    consecutive_breaks = 0
    fallback = False

    def charge(index: int, kind: str, detail: str) -> None:
        """Record a failure of the task's own making; re-queue or give up.

        A batched task fails and retries as a unit (its lanes share one
        base pass), so the failure is recorded against every member cell.
        """
        task = ordered[index]
        if report is not None:
            for workload, name, overrides in task.cells:
                report.record_failure(workload, name, overrides, kind, detail)
        obs_registry().counter("parallel.retries").inc()
        if attempts[index] > policy.retries:
            logger.error(
                "task %s failed (%s) after %d attempts: %s -- giving up",
                task.label(),
                kind,
                attempts[index],
                detail,
            )
            raise CellExecutionError(task.cells[0], kind, detail, attempts[index])
        logger.warning(
            "task %s failed (%s): %s -- retry %d/%d",
            task.label(),
            kind,
            detail,
            attempts[index],
            policy.retries,
        )
        delay = min(policy.backoff_cap, policy.backoff * (2 ** max(0, attempts[index] - 1)))
        pending.append((index, time.monotonic() + max(0.0, delay)))

    def interrupt(index: int) -> None:
        """Re-queue an innocent in-flight task without charging it."""
        attempts[index] -= 1  # the killed execution does not count
        if report is not None:
            for workload, name, overrides in ordered[index].cells:
                report.record_interruption(workload, name, overrides)
        pending.append((index, 0.0))

    def succeed(index: int, records) -> Iterator[Tuple[Cell, SimulationResult]]:
        """Book one completed task: timings, report records, results."""
        task = ordered[index]
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

    def handle_break(detail: str) -> None:
        """A worker died: charge in-flight cells, drop the pool."""
        nonlocal pool, consecutive_breaks, fallback
        consecutive_breaks += 1
        if report is not None:
            report.pool_rebuilds += 1
        obs_registry().counter("parallel.pool_rebuilds").inc()
        emit_event("pool-rebuild", detail=detail, consecutive=consecutive_breaks)
        logger.warning(
            "worker pool broke (%s); rebuilding (consecutive break %d)",
            detail,
            consecutive_breaks,
        )
        indices = [index for index, _ in inflight.values()]
        inflight.clear()
        submit_ts.clear()
        if pool is not None:
            _shutdown_pool(pool, kill=True)
            pool = None
        for index in indices:
            charge(index, "pool-break", detail)
        if consecutive_breaks >= policy.pool_failure_limit:
            fallback = True
            if report is not None:
                report.serial_fallback = True
            emit_event("serial-fallback", consecutive=consecutive_breaks)
            logger.warning(
                "degrading to in-process serial execution after %d consecutive pool failures",
                consecutive_breaks,
            )

    interrupted = False
    try:
        while pending or inflight:
            if fallback:
                # graceful degradation: finish the matrix in-process.
                # Injected crashes raise here instead of exiting (see
                # simulate_task), so the retry accounting still applies.
                index, not_before = pending.popleft()
                delay = not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                task = ordered[index]
                attempts[index] += 1
                if report is not None:
                    for workload, name, overrides in task.cells:
                        report.record_attempt(workload, name, overrides)
                try:
                    records = simulate_task(
                        config,
                        list(task.cells),
                        artifact_dir,
                        in_worker=False,
                        telemetry=telemetry,
                    )
                except Exception as exc:
                    charge(index, "exception", repr(exc))
                    continue
                for pair in succeed(index, records):
                    yield pair
                continue

            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max_workers)

            # submit at most one task per worker so a submitted task is
            # (almost) immediately a *running* task -- that keeps the
            # per-cell deadline honest and pool-break attribution tight
            submit_broke: Optional[str] = None
            while pending and len(inflight) < max_workers:
                now = time.monotonic()
                ready = None
                for position, (index, not_before) in enumerate(pending):
                    if not_before <= now:
                        ready = position
                        break
                if ready is None:
                    if inflight:
                        break  # completions will wake us before the backoff ends
                    soonest = min(not_before for _, not_before in pending)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue
                index, _ = pending[ready]
                del pending[ready]
                task = ordered[index]
                try:
                    future = pool.submit(
                        simulate_task,
                        config,
                        list(task.cells),
                        artifact_dir,
                        True,
                        telemetry,
                    )
                except BrokenProcessPool as exc:  # pool died between rounds
                    pending.appendleft((index, 0.0))
                    submit_broke = str(exc) or "BrokenProcessPool"
                    break
                attempts[index] += 1
                if report is not None:
                    for workload, name, overrides in task.cells:
                        report.record_attempt(workload, name, overrides)
                deadline = now + policy.timeout if policy.timeout is not None else None
                inflight[future] = (index, deadline)
                submit_ts[future] = now
            if submit_broke is not None:
                handle_break(submit_broke)
                continue
            if not inflight:
                continue

            wait_timeout: Optional[float] = None
            now = time.monotonic()
            deadlines = [dl for _, dl in inflight.values() if dl is not None]
            if deadlines:
                wait_timeout = max(0.01, min(deadlines) - now)
            if pending and len(inflight) < max_workers:
                soonest = min(not_before for _, not_before in pending)
                if soonest > now:
                    backoff_wake = max(0.01, soonest - now)
                    wait_timeout = (
                        backoff_wake if wait_timeout is None else min(wait_timeout, backoff_wake)
                    )
            done, _ = wait(set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED)

            broke: Optional[str] = None
            for future in done:
                index, _ = inflight.pop(future)
                started = submit_ts.pop(future, None)
                try:
                    records = future.result()
                except BrokenProcessPool as exc:
                    # every in-flight future of a broken pool raises this;
                    # charge this one now, handle_break charges the rest
                    broke = str(exc) or "BrokenProcessPool"
                    charge(index, "pool-break", broke)
                except Exception as exc:
                    charge(index, "exception", repr(exc))
                else:
                    consecutive_breaks = 0
                    if started is not None:
                        obs_registry().histogram("parallel.task.seconds").observe(
                            time.monotonic() - started
                        )
                    for pair in succeed(index, records):
                        yield pair
            if broke is not None:
                handle_break(broke)
                continue

            if policy.timeout is not None:
                now = time.monotonic()
                overdue = [
                    future
                    for future, (_, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                if overdue:
                    # a wedged worker can only be reclaimed by killing
                    # the pool; innocent in-flight cells are re-queued
                    # without being charged
                    if report is not None:
                        report.timeouts += len(overdue)
                        report.pool_rebuilds += 1
                    obs_registry().counter("parallel.timeouts").inc(len(overdue))
                    obs_registry().counter("parallel.pool_rebuilds").inc()
                    for future in overdue:
                        index, _ = inflight.pop(future)
                        task = ordered[index]
                        workload, name, _ = task.cells[0]
                        emit_event(
                            "cell-timeout", workload=workload, config=name, seconds=policy.timeout
                        )
                        logger.warning(
                            "task %s exceeded %.1fs; killing the pool to reclaim its worker",
                            task.label(),
                            policy.timeout,
                        )
                        charge(index, "timeout", f"exceeded {policy.timeout:.1f}s")
                    for future, (index, _) in list(inflight.items()):
                        interrupt(index)
                    inflight.clear()
                    submit_ts.clear()
                    _shutdown_pool(pool, kill=True)
                    pool = None
    except (KeyboardInterrupt, GeneratorExit):
        # Ctrl-C in the parent, or the caller abandoning the iterator
        # (e.g. the experiment service cancelling a job): cancel every
        # queued future and terminate the workers *now* -- an interrupted
        # matrix must never leave a pool alive behind the exception.
        interrupted = True
        raise
    finally:
        if pool is not None:
            _shutdown_pool(pool, kill=True)
            pool = None
        if interrupted:
            obs_registry().counter("parallel.interrupts").inc()
            emit_event("run-interrupted", pending=len(pending), inflight=len(inflight))
            logger.warning(
                "interrupted: cancelled %d queued and %d in-flight tasks",
                len(pending),
                len(inflight),
            )
        model.save()

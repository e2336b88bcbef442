"""Process-parallel execution of experiment matrices.

Every figure the paper reports is a matrix of (workload x predictor
configuration) simulations; this module fans the *uncached* cells of such
a matrix out over a :class:`concurrent.futures.ProcessPoolExecutor`.

Scheduling is **group-granular**: one task per shared-base group -- a
workload's cells sharing a base TAGE config, run over one base stream
(:mod:`repro.core.batched`) -- or per ungrouped cell, submitted heaviest
first.  A task's weight is the sum of its cells' configuration weights
(:data:`CONFIG_WEIGHTS`); every task of one call runs the same trace
length, so this is the ``trace length x weight`` order.  Ordering
affects *wall-clock only*, never results.

Workers amortise trace generation, base records and bundle
construction three ways.  Each pool's initializer seeds every worker's
process-global :class:`~repro.core.runner.Runner` with the calling
runner's memo of traces and base streams (no copy under ``fork``), and
each task hands back the traces it generated and the streams it
recorded, which the parent adds to its memo as the task completes -- so
across ``run_cells`` calls each trace is generated, and each (workload,
base config) stream recorded, about once per runner.  The worker runner
keeps the most recently used bundles alive across the cells it executes
(LRU-bounded).  And when an ``artifact_dir`` is given every worker
resolves bundles and base streams through the shared
:class:`~repro.core.artifacts.ArtifactStore` -- an mmap + wrap whose
pages all workers share.

Determinism: each cell's result is a pure function of ``(RunnerConfig,
workload, config name, overrides)`` -- trace generation is seeded and the
predictors draw no ambient randomness -- so results are bit-identical to
the serial path regardless of scheduling order or worker count.
``tests/test_parallel.py`` pins this.

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
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.batched import plan_batches, run_group
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

#: relative single-simulation cost by config-name prefix (first match
#: wins; measured on the shipped kernels -- Opt-W replays three LLBP-X
#: simulations).  Only scheduling order depends on these.
CONFIG_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("llbpx_optw", 5.4),
    ("llbpx", 1.9),
    ("llbp", 1.6),
    ("tsl_inf", 1.3),
)


def config_weight(name: str) -> float:
    """Relative cost weight of a predictor configuration."""
    for prefix, weight in CONFIG_WEIGHTS:
        if name.startswith(prefix):
            return weight
    return 1.0


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Cancel queued work and terminate the workers without waiting."""
    # snapshot the workers and the result pipe first: shutdown() drops
    # both even with wait=False, and a worker left unterminated keeps the
    # interpreter's atexit join blocked until its task finishes
    processes = list((getattr(pool, "_processes", None) or {}).values())
    results = getattr(pool, "_result_queue", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown of a broken pool
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    # a worker terminated mid-send leaves a torn result in the pipe, and
    # the pool's manager thread (which the interpreter joins at exit)
    # would wait forever for the rest of it; the parent never writes
    # there, so closing its write end turns that read into an EOF once
    # the workers are gone
    if results is not None:
        results._writer.close()


# -- worker side ---------------------------------------------------------------

#: process-global runner state: ``(key, Runner)`` reused across the cells
#: this worker executes, so bundles survive between same-workload cells
_WORKER_STATE: Dict[str, object] = {"key": None, "runner": None}

#: ``(traces, streams)``: a runner's memo (``Runner._traces``/``_streams``)
Memo = Tuple[Dict[str, object], Dict[Tuple[str, object], object]]


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


def _seed_worker(config: "RunnerConfig", artifact_dir: Optional[str], memo: Memo) -> None:
    """Pool initializer: a fresh worker runner that starts from ``memo``.

    A forked worker may inherit a runner from its parent (a direct
    :func:`simulate_task` call); it is never reused.
    """
    _WORKER_STATE["key"] = None
    runner = _worker_runner(config, artifact_dir)
    runner._traces.update(memo[0])
    runner._streams.update(memo[1])


def _trim_worker_bundles(runner, workload: str, config: "RunnerConfig") -> None:
    """LRU-bound the bundles a worker keeps: re-admit ``workload`` as most
    recent, then drop the oldest beyond the cap."""
    bundle_key = (workload, config.num_branches, config.seed)
    bundle = runner._bundles.pop(bundle_key, None)
    if bundle is not None:
        runner._bundles[bundle_key] = bundle
    while len(runner._bundles) > MAX_WORKER_BUNDLES:
        runner._bundles.pop(next(iter(runner._bundles)))


class TaskResult(NamedTuple):
    """What one task returns: per-cell records plus the task's products.

    ``traces`` and ``streams`` hold the memo entries the task added --
    traces it generated and base streams it recorded -- so they travel
    with the results of the task that made them.
    """

    records: List[Tuple[Cell, SimulationResult, float, bool]]
    traces: Dict[str, object]
    streams: Dict[Tuple[str, object], object]


@dataclass(frozen=True)
class _Task:
    """One schedulable unit: a shared-base group or an ungrouped cell.

    ``grouped`` tasks hold cells of one workload sharing a base
    TageConfig (:func:`repro.core.batched.run_group`); an ungrouped task
    is one ``llbpx_optw`` cell.
    """

    cells: Tuple[Cell, ...]
    grouped: bool = True


def simulate_task(
    config: "RunnerConfig",
    cells: Sequence[Cell],
    artifact_dir: Optional[str] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> TaskResult:
    """Worker entry point: execute one task; returns a :class:`TaskResult`.

    Its records are ``(cell, result, seconds, base_warm)`` per member,
    where a grouped lane's seconds are its tail plus an equal share of
    the group's base pass, and ``base_warm`` says whether that base
    stream was adopted from the memo or the artifact store.  The
    measured seconds include any bundle build/load the task paid for.
    Its traces and streams are what this task added to the worker
    runner's memo.

    ``telemetry`` attaches this worker to the run's telemetry directory
    (per-pid event/metrics files; see :mod:`repro.obs`).  The metrics
    snapshot is flushed after *every* completed task, so a worker later
    killed mid-run leaves exactly the counts of the tasks it finished.
    """
    if telemetry is not None:
        obs_ensure(telemetry[0], sample_interval=telemetry[1])
    runner = _worker_runner(config, artifact_dir)
    known_traces, known_streams = set(runner._traces), set(runner._streams)
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
    return TaskResult(
        out,
        {w: trace for w, trace in runner._traces.items() if w not in known_traces},
        {key: packed for key, packed in runner._streams.items() if key not in known_streams},
    )


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


def plan_tasks(cells: Sequence[Cell], config: "RunnerConfig") -> List[_Task]:
    """Partition cells into schedulable tasks, heaviest first.

    Each workload's cells sharing a base TageConfig become one grouped
    task; the ungrouped rest (``llbpx_optw``) are single-cell tasks,
    counted on ``backend.fallbacks``.  A task weighs the sum of its
    cells' :func:`config_weight`; the sort is stable, so tasks of equal
    weight keep plan (workload-major) order.
    """
    plan = plan_batches(cells, config.scale)
    tasks = [_Task(cells=tuple(group)) for group in plan.groups]
    tasks.extend(_Task(cells=(cell,), grouped=False) for cell in plan.singles)
    if plan.fallbacks:
        obs_registry().counter("backend.fallbacks").inc(plan.fallbacks)
    return sorted(
        tasks, key=lambda task: sum(config_weight(name) for _, name, _ in task.cells), reverse=True
    )


def run_cells_parallel(
    config: "RunnerConfig",
    cells: Sequence[Cell],
    jobs: int,
    artifact_dir: Optional[str] = None,
    report=None,
    telemetry: Optional[TelemetryConfig] = None,
    memo: Optional[Memo] = None,
) -> Iterator[Tuple[Cell, SimulationResult]]:
    """Fan cells out over ``jobs`` processes, heaviest task first.

    Cells of one workload sharing a base TageConfig travel as one task
    (:func:`plan_tasks`): one worker runs their base once and every lane
    tail (:mod:`repro.core.batched`).  Yields ``(cell, result)`` pairs as
    tasks complete (arbitrary order -- the caller re-associates), so
    progress reporting works while later cells are still running.
    ``report`` (a :class:`~repro.core.run_report.RunReport`) receives
    per-cell timings and base warmth, and the batched groups.

    ``memo`` is the calling runner's ``(traces, streams)``: every worker
    starts from it, and each completed task's products are added to it
    before its results are yielded, so the next call's pool starts with
    them.  A task that fails adds nothing.

    Nothing is retried.  When a task raises, or a worker dies
    (``BrokenProcessPool``), the results of every task that completed in
    the same wait are yielded first; then the pool is killed and the
    exception re-raised.  A caller that persists what it is handed (the
    runner's result cache) therefore resumes on rerun.  A Ctrl-C, or the
    caller abandoning the iterator (closing it before the last result),
    kills the pool as well and counts as an interrupt.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not cells:
        return
    ordered = plan_tasks(cells, config)

    def book(task: _Task, records) -> Iterator[Tuple[Cell, SimulationResult]]:
        """Report records and results of one completed task."""
        if task.grouped and report is not None:
            report.record_batched_group(len(task.cells))
        for (workload, name, overrides), result, seconds, base_warm in records:
            if report is not None:
                report.record_success(workload, name, overrides, seconds, base_warm=base_warm)
            yield (workload, name, overrides), result

    traces, streams = memo if memo is not None else ({}, {})
    # the *pool* is bounded by real cores even when the caller asked for more
    pool = ProcessPoolExecutor(
        max_workers=max(1, min(effective_jobs(jobs), len(ordered))),
        initializer=_seed_worker,
        initargs=(config, artifact_dir, (traces, streams)),
    )
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
                    output = future.result()
                except Exception as exc:  # a raising task or a dead worker
                    failure = failure or exc
                    continue
                traces.update(output.traces)
                streams.update(output.streams)
                yield from book(task, output.records)
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

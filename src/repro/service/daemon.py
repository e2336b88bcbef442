"""The experiment daemon: one executor drain loop over the job queue.

:class:`ExperimentService` owns the warm state every job shares -- the
persistent :class:`~repro.core.results_io.ResultCache`, an optional
:class:`~repro.core.artifacts.ArtifactStore` (bundles + base streams),
and its own :class:`~repro.obs.events.EventSink` -- and runs submitted
jobs one at a time on a single drain thread.  Serialising jobs is what
makes the zero-duplicate-work guarantee trivial: overlapping cells of a
later job resolve from the shared cache that the earlier job populated,
so two clients submitting overlapping matrices never simulate a cell
twice (tests/test_service.py counter-asserts this).

With ``join=True`` the daemon participates in an elastic multi-host run:
each job's runner attaches a :class:`~repro.core.sched.CoopScheduler`
over the shared ledger, so cooperating ``repro run --join`` hosts can
drain cells of the same queue's jobs.

Cancellation reuses the runner's interrupt path: the progress callback
raises :class:`~repro.service.jobs.JobCancelled` when the job's cancel
flag is set, which tears down the parallel pool (``cancel_futures``) and
releases any unfinished multi-host claims, exactly like a Ctrl-C.
"""

from __future__ import annotations

import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.artifacts import ArtifactStore
from repro.core.parallel import RetryPolicy
from repro.core.results_io import TIMINGS_FILENAME, ResultCache, TimingStore
from repro.core.runner import DEFAULT_BRANCHES, DEFAULT_SCALE, Runner, RunnerConfig
from repro.core.simulator import SimulationResult
from repro.obs.events import EventSink, compact_events
from repro.obs.ledger import LEDGER_DIRNAME, RunLedger
from repro.obs.log import get_logger
from repro.obs.metrics import registry as obs_registry
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobCancelled,
    JobQueue,
    JobSpec,
)

__all__ = ["ExperimentService", "SERVICE_EVENTS_DIRNAME"]

logger = get_logger("service")

#: default event-sink directory, relative to the cache directory
SERVICE_EVENTS_DIRNAME = ".service-events"


class ExperimentService:
    """Job executor shared by every client of one daemon."""

    def __init__(
        self,
        cache_dir,
        artifact_dir=None,
        events_dir=None,
        branches: int = DEFAULT_BRANCHES,
        scale: int = DEFAULT_SCALE,
        jobs: int = 1,
        quota: int = 0,
        retries: int = RetryPolicy.retries,
        cell_timeout: Optional[float] = None,
        join: bool = False,
        hosts_dir=None,
        host_id: Optional[str] = None,
        claim_batch: Optional[int] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir)
        self.artifacts = ArtifactStore(artifact_dir) if artifact_dir else None
        self.events_dir = Path(events_dir) if events_dir else (
            self.cache.cache_dir / SERVICE_EVENTS_DIRNAME
        )
        self.sink = EventSink(self.events_dir)
        self.ledger = RunLedger(self.cache.cache_dir / LEDGER_DIRNAME)
        self.default_branches = int(branches)
        self.default_scale = int(scale)
        self.default_jobs = max(1, int(jobs))
        self.retry_policy = RetryPolicy(retries=retries, timeout=cell_timeout)
        self.queue = JobQueue(quota=quota)
        self.join = bool(join)
        self.hosts_dir = hosts_dir
        self.host_id = host_id
        self.claim_batch = claim_batch
        self.jobs_done = 0
        self.started_at: Optional[float] = None
        #: drain-thread seconds spent executing jobs (utilization gauge)
        self.busy_seconds = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self.started_at = time.time()
        # event-dir hygiene: roll the per-pid files of dead past runners
        # into merged segments before this incarnation adds its own
        try:
            compacted = compact_events(self.events_dir)
        except Exception:  # noqa: BLE001 - hygiene must not block startup
            compacted = {}
        # registering the uptime gauge up front makes it visible on the
        # very first /metrics scrape, before any snapshot refresh ran
        obs_registry().gauge("service.uptime.seconds").set(0.0)
        self._thread = threading.Thread(target=self._drain, name="repro-service", daemon=True)
        self._thread.start()
        self.sink.emit("service-start", events_dir=str(self.events_dir), compacted=compacted)
        if compacted.get("event_files") or compacted.get("metrics_files"):
            logger.info(
                "compacted %d dead event file(s), %d metrics file(s) in %s",
                compacted.get("event_files", 0),
                compacted.get("metrics_files", 0),
                self.events_dir,
            )

    def stop(self) -> None:
        self._stop.set()
        self.queue.wake()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.sink.emit("service-stop", jobs_done=self.jobs_done)
        self.sink.close()

    # -- submission ---------------------------------------------------------

    def submit(self, payload: object, tenant: Optional[str] = None) -> Job:
        """Validate ``payload`` against this daemon's defaults and enqueue."""
        spec = JobSpec.from_dict(
            payload,
            default_branches=self.default_branches,
            default_scale=self.default_scale,
            default_jobs=self.default_jobs,
            tenant=tenant,
        )
        job = self.queue.submit(spec)
        self.sink.emit(
            "job-queued",
            job=job.id,
            tenant=spec.tenant,
            priority=spec.priority,
            workloads=list(spec.workloads),
            configs=list(spec.configs),
        )
        logger.info("queued %s (%d cells, tenant=%s)", job.id, len(spec.workloads) * len(spec.configs), spec.tenant)
        return job

    def cancel(self, job_id: str) -> Optional[Job]:
        job = self.queue.cancel(job_id)
        if job is not None:
            self.sink.emit("job-cancel-requested", job=job.id, state=job.state)
        return job

    # -- execution ----------------------------------------------------------

    def _runner_for(self, spec: JobSpec) -> Runner:
        runner = Runner(
            RunnerConfig(scale=spec.scale, num_branches=spec.branches),
            cache=self.cache,
            artifacts=self.artifacts,
            retry_policy=self.retry_policy,
            ledger=self.ledger,
        )
        if self.join:
            from repro.core.sched import HOSTS_DIRNAME, CoopScheduler, HostLedger

            hosts_dir = self.hosts_dir or (self.cache.cache_dir / HOSTS_DIRNAME)
            ledger = HostLedger(hosts_dir, host_id=self.host_id)
            if self.claim_batch:
                runner.coop = CoopScheduler(ledger, claim_batch=self.claim_batch)
            else:
                runner.coop = CoopScheduler(ledger)
        return runner

    def _execute(self, job: Job) -> None:
        spec = job.spec
        self.sink.emit("job-start", job=job.id, tenant=spec.tenant)
        if job.started_at is not None:
            obs_registry().histogram("jobs.wait.seconds").observe(
                max(0.0, job.started_at - job.created_at)
            )
        exec_start = time.monotonic()
        runner = self._runner_for(spec)
        runner.ledger_context.update({"source": "service", "job": job.id, "tenant": spec.tenant})
        job.cells = [
            {"workload": workload, "config": config, "digest": runner.digest(workload, config)}
            for workload in spec.workloads
            for config in spec.configs
        ]

        def progress(workload: str, config: str, result: SimulationResult) -> None:
            if job.cancel_requested:
                raise JobCancelled(job.id)
            job.cells_done += 1
            self.sink.emit(
                "job-cell",
                job=job.id,
                seq=job.next_event_seq(),
                workload=workload,
                config=config,
                mpki=result.mpki,
            )

        state, error = DONE, ""
        try:
            if job.cancel_requested:  # cancelled between pop and start
                raise JobCancelled(job.id)
            runner.run_matrix(
                list(spec.workloads),
                list(spec.configs),
                progress=progress,
                jobs=spec.jobs,
            )
        except JobCancelled:
            runner.report.record_interrupted()
            state = CANCELLED
            logger.warning("%s cancelled after %d cells", job.id, job.events_emitted)
        except Exception as exc:  # noqa: BLE001 - one job must not kill the daemon
            state, error = FAILED, f"{type(exc).__name__}: {exc}"
            logger.error("%s failed: %s\n%s", job.id, error, traceback.format_exc())
        job.report = runner.report.to_dict(runner)
        exec_seconds = time.monotonic() - exec_start
        self.busy_seconds += exec_seconds
        obs_registry().histogram("jobs.exec.seconds").observe(exec_seconds)
        self.queue.finish(job, state, error)
        self.jobs_done += 1
        self.sink.emit(
            "job-" + state,
            job=job.id,
            seq=job.next_event_seq(),
            simulations=runner.sim_count,
            error=error,
        )
        logger.info("%s %s (%d simulations)", job.id, state, runner.sim_count)

    def _drain(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    # -- queries ------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        return self.queue.get(job_id)

    def jobs(self) -> List[Job]:
        return self.queue.jobs()

    def result(self, digest: str) -> Optional[SimulationResult]:
        return self.cache.get(digest)

    def uptime(self) -> float:
        return max(0.0, time.time() - self.started_at) if self.started_at else 0.0

    def stats(self) -> Dict[str, object]:
        """The ``/healthz`` payload: liveness *and* readiness figures."""
        return {
            "ok": True,
            "jobs": self.queue.by_state(),
            "jobs_done": self.jobs_done,
            "queue_depth": self.queue.depth(),
            "uptime_seconds": round(self.uptime(), 3),
            "ledger_records": self.ledger.count(),
            "cache": self.cache.stats(),
            "events_dir": str(self.events_dir),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Registry snapshot with the service-level gauges refreshed.

        Gauges are point-in-time and pull-refreshed on every scrape; the
        job wait/exec histograms and all runner counters were populated
        by the drain thread as work happened (the registry is shared --
        one per process, thread-safe).  Per-tenant queued/running gauges
        embed Prometheus labels in the instrument name, which
        :func:`repro.obs.metrics.to_prometheus` passes through verbatim.
        """
        registry = obs_registry()
        uptime = self.uptime()
        registry.gauge("service.uptime.seconds").set(uptime)
        registry.gauge("jobs.queue_depth").set(float(self.queue.depth()))
        registry.gauge("service.jobs_done").set(float(self.jobs_done))
        registry.gauge("service.ledger_records").set(float(self.ledger.count()))
        registry.gauge("service.drain.utilization").set(
            self.busy_seconds / uptime if uptime > 0 else 0.0
        )
        for tenant, counts in sorted(self.queue.by_tenant().items()):
            for state, value in sorted(counts.items()):
                name = 'jobs.tenant{tenant="%s",state="%s"}' % (tenant, state)
                registry.gauge(name).set(float(value))
        return registry.snapshot()

    def progress_of(self, job: Job) -> Dict[str, object]:
        """Live progress of one job: cells done/total, throughput, ETA.

        Throughput is branches resolved per wall second so far; the ETA
        sums the learned cost model's estimates for the remaining cells
        (matrix order approximates the unresolved set -- cells finish
        out of order under parallelism, but the *count* remaining is
        exact), scaled down by the job's worker parallelism.
        """
        spec = job.spec
        total = len(job.cells) or len(spec.workloads) * len(spec.configs)
        done = min(job.cells_done, total)
        now = time.time()
        elapsed = 0.0
        if job.started_at is not None:
            elapsed = max(0.0, (job.finished_at or now) - job.started_at)
        throughput = (done * spec.branches / elapsed) if elapsed > 0 else 0.0
        payload: Dict[str, object] = {
            "id": job.id,
            "state": job.state,
            "cells_done": done,
            "cells_total": total,
            "elapsed_seconds": round(elapsed, 3),
            "branches_per_sec": round(throughput, 2),
            "eta_seconds": None,
        }
        if job.finished or job.started_at is None:
            return payload
        try:
            from repro.core.costmodel import make_cost_model

            model = make_cost_model(TimingStore(self.cache.cache_dir / TIMINGS_FILENAME))
            remaining = job.cells[done:] if job.cells else []
            estimate = sum(
                model.estimate(cell["workload"], cell["config"], spec.branches)
                for cell in remaining
            )
            payload["eta_seconds"] = round(estimate / max(1, spec.jobs), 3)
            payload["cost_model"] = getattr(model, "kind", "heuristic")
        except Exception:  # noqa: BLE001 - progress must never 500 a poll
            pass
        return payload

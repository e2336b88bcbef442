"""Job specs, job records, and the priority job queue.

A *job* is one experiment matrix (workloads x configs) submitted to the
daemon.  Jobs are queued by ``(priority, submission order)`` -- higher
priority first, FIFO within a priority -- and a per-tenant quota bounds
how many jobs any one tenant may have queued or running at once, so a
single client scripting a sweep cannot starve everyone else sharing the
daemon.

Cancellation is cooperative and reuses the runner's interrupt path: the
executor's progress callback checks :attr:`Job.cancel_requested` between
cells and raises :class:`JobCancelled`, which unwinds ``run_cells``
exactly like a Ctrl-C -- the parallel pool is torn down with
``cancel_futures`` and any multi-host claims are released by the
scheduler's interrupt handling (see repro.core.parallel / sched).
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.traces.workloads import WORKLOAD_NAMES

__all__ = ["Job", "JobCancelled", "JobQueue", "JobSpec", "QuotaExceeded", "SpecError"]

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

FINAL_STATES = (DONE, FAILED, CANCELLED)

DEFAULT_TENANT = "default"


class SpecError(ValueError):
    """A submitted job spec is malformed (HTTP 400)."""


class QuotaExceeded(RuntimeError):
    """The tenant already has its quota of queued/running jobs (HTTP 429)."""


class JobCancelled(Exception):
    """Raised from the progress callback to unwind a cancelled job's run."""


def _known_configs() -> tuple:
    # the canonical config-name list lives next to the CLI; imported
    # lazily so repro.service never circularly imports repro.__main__
    from repro.__main__ import KNOWN_CONFIGS

    return KNOWN_CONFIGS


@dataclass(frozen=True)
class JobSpec:
    """Validated matrix spec of one job.

    ``branches``/``scale``/``jobs`` default to the daemon's
    own defaults when the client omits them, so a spec names only what
    it cares about.
    """

    workloads: tuple
    configs: tuple
    branches: int
    scale: int
    jobs: int
    priority: int = 0
    tenant: str = DEFAULT_TENANT

    @staticmethod
    def from_dict(
        payload: object,
        default_branches: int = 120_000,
        default_scale: int = 8,
        default_jobs: int = 1,
        tenant: Optional[str] = None,
    ) -> "JobSpec":
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        known = set(
            ("workloads", "configs", "branches", "scale", "jobs", "priority", "tenant")
        )
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(f"unknown spec fields: {', '.join(unknown)}")

        workloads = payload.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise SpecError("spec requires a non-empty 'workloads' list")
        for name in workloads:
            if name not in WORKLOAD_NAMES:
                raise SpecError(
                    f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}"
                )
        configs = payload.get("configs")
        if not isinstance(configs, list) or not configs:
            raise SpecError("spec requires a non-empty 'configs' list")
        for name in configs:
            if name not in _known_configs():
                raise SpecError(
                    f"unknown config {name!r}; known: {', '.join(_known_configs())}"
                )

        def _int(key: str, default: int, minimum: int) -> int:
            value = payload.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise SpecError(f"{key!r} must be an integer >= {minimum}")
            return value

        branches = _int("branches", default_branches, 1)
        scale = _int("scale", default_scale, 1)
        jobs = _int("jobs", default_jobs, 1)
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SpecError("'priority' must be an integer")
        spec_tenant = payload.get("tenant", tenant) or DEFAULT_TENANT
        if not isinstance(spec_tenant, str):
            raise SpecError("'tenant' must be a string")
        return JobSpec(
            workloads=tuple(workloads),
            configs=tuple(configs),
            branches=branches,
            scale=scale,
            jobs=jobs,
            priority=priority,
            tenant=spec_tenant,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workloads": list(self.workloads),
            "configs": list(self.configs),
            "branches": self.branches,
            "scale": self.scale,
            "jobs": self.jobs,
            "priority": self.priority,
            "tenant": self.tenant,
        }


@dataclass
class Job:
    """One submitted matrix and its lifecycle record."""

    id: str
    spec: JobSpec
    seq: int
    state: str = QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: str = ""
    #: cell identity list, in matrix order: {"workload", "config", "digest"}
    cells: List[Dict[str, str]] = field(default_factory=list)
    #: structured RunReport dict, attached once the job finishes
    report: Optional[Dict[str, object]] = None
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: per-job progress-event counter (the events endpoint's cursor)
    events_emitted: int = 0
    #: cells resolved so far (cache hits included) -- /jobs/<id>/progress
    cells_done: int = 0

    @property
    def cancel_requested(self) -> bool:
        return self.cancel_event.is_set()

    @property
    def finished(self) -> bool:
        return self.state in FINAL_STATES

    def next_event_seq(self) -> int:
        self.events_emitted += 1
        return self.events_emitted

    def to_dict(self, verbose: bool = True) -> Dict[str, object]:
        data: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "events_emitted": self.events_emitted,
            "cells_done": self.cells_done,
        }
        if verbose:
            data["cells"] = list(self.cells)
            data["report"] = self.report
        return data


class JobQueue:
    """Priority queue of jobs with per-tenant quotas.

    ``quota`` bounds each tenant's *active* (queued + running) jobs;
    ``0`` disables the bound.  All methods are thread-safe; ``pop``
    blocks until a job is available or the timeout lapses, which is the
    executor drain loop's idle wait.
    """

    def __init__(self, quota: int = 0) -> None:
        self.quota = int(quota)
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (-priority, seq, job_id)
        self._jobs: Dict[str, Job] = {}
        self._active: Dict[str, int] = {}  # tenant -> queued + running
        self._seq = 0

    def submit(self, spec: JobSpec) -> Job:
        with self._lock:
            if self.quota and self._active.get(spec.tenant, 0) >= self.quota:
                raise QuotaExceeded(
                    f"tenant {spec.tenant!r} already has {self.quota} active job(s)"
                )
            self._seq += 1
            job = Job(id=f"job-{self._seq:06d}", spec=spec, seq=self._seq)
            self._jobs[job.id] = job
            self._active[spec.tenant] = self._active.get(spec.tenant, 0) + 1
            heapq.heappush(self._heap, (-spec.priority, job.seq, job.id))
            self._available.notify()
            return job

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Highest-priority queued job, or ``None`` after ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs[job_id]
                    if job.state == QUEUED:  # skip queue-cancelled entries
                        job.state = RUNNING
                        job.started_at = time.time()
                        return job
                if deadline is None:
                    self._available.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._available.wait(remaining):
                        return None

    def finish(self, job: Job, state: str, error: str = "") -> None:
        """Transition a running job to a final state and release its quota."""
        with self._lock:
            job.state = state
            job.error = error
            job.finished_at = time.time()
            tenant = job.spec.tenant
            self._active[tenant] = max(0, self._active.get(tenant, 0) - 1)
            job.done_event.set()

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queue-cancel immediately if not started."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
                tenant = job.spec.tenant
                self._active[tenant] = max(0, self._active.get(tenant, 0) - 1)
                job.done_event.set()
            elif job.state == RUNNING:
                job.cancel_event.set()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def active_count(self, tenant: str) -> int:
        with self._lock:
            return self._active.get(tenant, 0)

    def depth(self) -> int:
        """Jobs waiting to run (queued state, cancellations excluded)."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == QUEUED)

    def by_state(self) -> Dict[str, int]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return states

    def by_tenant(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant queued/running counts (the /metrics tenant gauges)."""
        with self._lock:
            tenants: Dict[str, Dict[str, int]] = {}
            for job in self._jobs.values():
                if job.state not in (QUEUED, RUNNING):
                    continue
                entry = tenants.setdefault(job.spec.tenant, {"queued": 0, "running": 0})
                entry[job.state] += 1
            return tenants

    def wake(self) -> None:
        """Nudge a blocked ``pop`` (used by the daemon's shutdown)."""
        with self._lock:
            self._available.notify_all()

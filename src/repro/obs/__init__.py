"""``repro.obs``: the unified telemetry layer.

Zero-dependency observability for experiment runs, in four pieces:

* **Spans** (:func:`span`) -- nested wall/CPU timing context managers
  around the runner's phases (``cli`` > ``run_cells`` > ``cell`` >
  ``bundle``/``simulate``).  Span events carry ``span_id``/``parent_id``
  so :mod:`repro.obs.report` can rebuild the tree, including across
  process boundaries (a worker's ``cell`` span parents onto the
  dispatching ``run_cells`` span inherited over ``fork``).
* **Metrics** (:mod:`repro.obs.metrics`) -- a per-process registry of
  counters, gauges, and fixed-bucket histograms (with percentile
  estimation).  Existing store counters (``ResultCache``,
  ``ArtifactStore``, ``TimingStore``, ``RunReport``) are migrated onto
  the registry via pull *collectors*, so per-instance semantics and the
  public attribute API are unchanged while every snapshot sees them.
* **Events** (:mod:`repro.obs.events`) -- a JSONL sink, one
  ``events-<pid>.jsonl`` file per process, flushed per line so files
  from killed workers still merge (a truncated final line is skipped,
  never fatal).  Per-cell successes, batched groups, multi-host claims,
  interrupts and periodic predictor samples land here.
* **Sampling** (:class:`Sampler`) -- periodic in-simulation snapshots
  of predictor internals (TAGE occupancy and useful-bit saturation,
  LLBP pattern-buffer hit rate, LLBP-X depth adaptation) every N
  branches.  The hook wraps the fused ``step`` kernel *only when
  telemetry is enabled with a sampling interval*; with telemetry off the
  kernel is untouched and the hot path pays nothing.

Everything hangs off one process-global :class:`Telemetry` session
(:func:`configure` / :func:`current` / :func:`shutdown`).  Worker
processes receive the telemetry directory explicitly (no ambient env
vars) and re-initialise per-pid sinks on first use, so ``fork`` and
``spawn`` start methods both produce a clean per-process file set.
``python -m repro obs-report DIR`` renders a merged run.
"""

from repro.obs.events import EventSink, compact_events, read_events
from repro.obs.ledger import RunLedger, build_run_record
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    registry,
    to_prometheus,
)
from repro.obs.regress import check_and_update, flagged_records
from repro.obs.report import load_run, render_report, render_trend
from repro.obs.sampling import Sampler, active_sampler
from repro.obs.spans import span
from repro.obs.telemetry import (
    Telemetry,
    configure,
    current,
    emit_event,
    enabled,
    ensure,
    flush,
    merged_metrics,
    shutdown,
    worker_config,
)

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunLedger",
    "Sampler",
    "Telemetry",
    "active_sampler",
    "build_run_record",
    "check_and_update",
    "compact_events",
    "configure",
    "flagged_records",
    "to_prometheus",
    "configure_logging",
    "current",
    "emit_event",
    "enabled",
    "ensure",
    "flush",
    "get_logger",
    "load_run",
    "merge_snapshots",
    "merged_metrics",
    "read_events",
    "registry",
    "render_report",
    "render_trend",
    "shutdown",
    "span",
    "worker_config",
]

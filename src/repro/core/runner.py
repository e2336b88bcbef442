"""Multi-configuration experiment runner.

The runner knows how to build every predictor configuration the paper
evaluates by name (``"tsl_64k"``, ``"llbp"``, ``"llbpx"``,
``"llbpx_optw"``, ``"tsl_512k"``, ``"tsl_inf"``, ...), shares the
expensive per-trace precomputation (tensors, context streams) across
configurations, and caches results per ``(workload, config, run
parameters)`` so experiment harnesses that overlap -- Table I's baseline
runs reappear in Figs 4 and 12, for instance -- only simulate once.

``llbpx_optw`` implements the paper's *Opt-W* upper bound via
profile-then-replay: a dynamic LLBP-X run discovers which contexts
transitioned to the deep depth; two oracle replays (all-shallow, and
deep-for-transitioned) are evaluated and the better one reported.  Both
replays fix every context's depth ahead of time, which is exactly the
paper's definition; dynamic adaptation may still occasionally win (the
paper observes this for Chirper).  The three passes are three LLBP-X
tails over one base stream.

A runner also memoises, for its whole lifetime, each workload's trace
and each (workload, base config) packed base stream.  Every harness
that asks one runner for the same baselines -- Table I's ``tsl_64k``
bases back Figs 4, 12 and 14-16, and the Fig 6-9 analyses -- then
generates each trace and records each base once.  :meth:`Runner.shared_base`
is the one resolver every user of base streams goes through: memo, then
artifact store, then a fresh record.  Pool workers start from the
parent's memo and hand back what they produce
(:mod:`repro.core.parallel`).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.artifacts import ArtifactStore
from repro.core.batched import plan_batches, resolve_configs, run_group
from repro.core.run_report import RunReport
from repro.obs.log import get_logger
from repro.obs.metrics import registry as obs_registry
from repro.obs.telemetry import emit_event
from repro.obs.spans import span
from repro.obs.telemetry import flush as obs_flush
from repro.obs.telemetry import worker_config as obs_worker_config
from repro.core.results_io import (
    ResultCache,
    ResultKey,
    cache_digest,
    cache_key,
    result_key,
)
from repro.core.simulator import SimulationResult, simulate
from repro.llbp import LLBP, LLBPX, ContextStreams, LLBPXConfig
from repro.tage import TageConfig, TageSCL, TraceTensors
from repro.tage.batched_state import SharedBase
from repro.traces import Trace, generate_workload

logger = get_logger("runner")

#: default capacity scale of the scaled universe (DESIGN.md §1)
DEFAULT_SCALE = 8
#: default trace length (branches) for experiment runs
DEFAULT_BRANCHES = 120_000


@dataclass(frozen=True)
class RunnerConfig:
    """Run parameters shared by all configurations of one study."""

    scale: int = DEFAULT_SCALE
    num_branches: int = DEFAULT_BRANCHES
    warmup_fraction: float = 0.25
    seed: Optional[int] = None  # workload seed override


@dataclass
class WorkloadBundle:
    """Shared per-trace state reused across predictor configurations."""

    trace: Trace
    tensors: TraceTensors
    contexts: ContextStreams


#: one cell of an experiment matrix: ``(workload, config name, overrides)``
Cell = Tuple[str, str, Mapping[str, object]]


class Runner:
    """Builds predictors by name and memoises simulation results.

    ``cache`` optionally attaches a persistent
    :class:`~repro.core.results_io.ResultCache`: results are then also
    written to disk, and future runners (including other processes)
    sharing the cache directory skip simulation entirely on a hit.
    ``sim_count`` counts the simulations this runner actually performed
    (directly or via workers), so tests can assert that a warm cache
    performs zero.

    ``artifacts`` optionally attaches a persistent
    :class:`~repro.core.artifacts.ArtifactStore`: :meth:`bundle` then
    resolves workload bundles through it -- an mmap + wrap on a hit
    instead of a trace-generation rebuild -- and persists fresh builds
    (plus their lazily derived streams) for every later run and for
    sibling worker processes.  ``bundle_builds`` counts bundles this
    runner constructed via trace generation; ``bundle_loads`` counts
    artifact-store materialisations -- a warm store performs zero builds.
    ``bundle_build_seconds`` / ``artifact_load_seconds`` /
    ``sim_seconds`` accumulate the phase breakdown the throughput
    benchmark reports.

    ``report`` is a :class:`~repro.core.run_report.RunReport`
    accumulating per-cell records (source, seconds, base warmth) across
    this runner's ``run_cells`` calls.

    The runner memoises what it generates and records: ``_traces``
    (workload -> :class:`~repro.traces.Trace`, numpy columns, 22
    B/branch) and ``_streams`` ((workload, base config) -> packed
    ``uint64`` base stream, 8 B/branch).  :meth:`bundle` builds from a
    memoised trace instead of generating it again, and
    :meth:`shared_base` adopts a memoised stream instead of recording it
    again.  :meth:`release` keeps the memo, so it outlives every harness
    that runs on this runner; ``clear_cache(bundles=True)`` drops it.
    """

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        cache: Optional[ResultCache] = None,
        artifacts: Optional[ArtifactStore] = None,
        backend: Optional[str] = None,
        ledger: Optional[object] = None,
    ) -> None:
        self.config = config or RunnerConfig()
        self.cache = cache
        self.artifacts = artifacts
        if backend not in (None, "auto"):
            raise ValueError(
                f"unknown backend {backend!r}: every cell runs as a lane tail over a base stream"
            )
        #: the label run-ledger records carry; the watchdog keys its
        #: baselines by (matrix, backend, host), so it stays "auto"
        self.backend = "auto"
        self.report = RunReport()
        self.sim_count = 0
        self.bundle_builds = 0
        self.bundle_loads = 0
        self.bundle_build_seconds = 0.0
        self.artifact_load_seconds = 0.0
        self.sim_seconds = 0.0
        self._bundles: Dict[Tuple[str, int, Optional[int]], WorkloadBundle] = {}
        #: generated traces and recorded base streams, kept for the
        #: runner's lifetime (see the class docstring)
        self._traces: Dict[str, Trace] = {}
        self._streams: Dict[Tuple[str, TageConfig], np.ndarray] = {}
        self._results: Dict[ResultKey, SimulationResult] = {}
        #: run ledger every run_matrix appends one record to.  ``None``
        #: with a cache attached auto-creates <cache-dir>/.ledger (the
        #: longitudinal history rides the same shared directory as the
        #: results it describes); ``False`` disables; an instance is used
        #: as-is.  No cache and no explicit ledger -> no history, which
        #: keeps cache-less hot-path benchmarks free of any ledger I/O.
        if ledger is None and cache is not None:
            from repro.obs.ledger import LEDGER_DIRNAME, RunLedger

            ledger = RunLedger(cache.cache_dir / LEDGER_DIRNAME)
        self.ledger = ledger or None
        #: labels stamped into ledger records ("source", ...); the CLI
        #: fills these before running
        self.ledger_context: Dict[str, object] = {}
        #: records this runner appended (the CLI's fallback-append guard)
        self.ledger_appends = 0

    # -- workload handling ------------------------------------------------------

    def bundle(self, workload: str) -> WorkloadBundle:
        key = (workload, self.config.num_branches, self.config.seed)
        if key in self._bundles:
            return self._bundles[key]
        with span("bundle", workload=workload):
            if self.artifacts is not None:
                start = time.perf_counter()
                loaded = self.artifacts.load_bundle(workload, self.config)
                if loaded is not None:
                    self.artifact_load_seconds += time.perf_counter() - start
                    self.bundle_loads += 1
                    obs_registry().counter("runner.bundle_loads").inc()
                    self._bundles[key] = loaded
                    return loaded
            start = time.perf_counter()
            trace = self._traces.get(workload)
            if trace is None:
                trace = generate_workload(
                    workload, num_branches=self.config.num_branches, seed=self.config.seed
                )
                self._traces[workload] = trace
            # the copy shares the columns; its aslists cache goes with the bundle
            trace = copy.copy(trace)
            tensors = TraceTensors(trace)
            bundle = WorkloadBundle(trace, tensors, ContextStreams(tensors))
            self.bundle_builds += 1
            obs_registry().counter("runner.bundle_builds").inc()
            if self.artifacts is not None:
                # persists the columns now and the derived streams as they are
                # computed (write-back hooks attach to tensors/contexts)
                self.artifacts.save_bundle(workload, self.config, bundle)
            self.bundle_build_seconds += time.perf_counter() - start
            self._bundles[key] = bundle
            return bundle

    def shared_base(self, workload: str, base_cfg: TageConfig) -> SharedBase:
        """The workload's base under ``base_cfg``, with its stream resolved.

        The stream comes from the first of: this runner's memo, the
        artifact store, or a fresh :meth:`SharedBase.record`, which is
        memoised and, with a store attached, persisted.  A memoised or
        loaded stream is adopted (``base.adopted``), so the lanes over it
        run tail-only and the base never builds its TAGE core.
        """
        bundle = self.bundle(workload)
        shared = SharedBase(base_cfg, bundle.tensors)
        registry = obs_registry()
        key = (workload, base_cfg)
        packed = self._streams.get(key)
        if packed is not None:
            with span("backend.base", workload=workload, base=base_cfg.name, mode="memo"):
                shared.adopt_stream(packed)
            registry.counter("backend.base_memo_hits").inc()
            return shared
        if self.artifacts is not None:
            packed = self.artifacts.load_base_stream(
                workload, self.config, base_cfg, expected_length=len(bundle.trace)
            )
        if packed is not None:
            with span("backend.base", workload=workload, base=base_cfg.name, mode="load"):
                shared.adopt_stream(packed)
            registry.counter("backend.base_loads").inc()
            return shared
        with span("backend.base", workload=workload, base=base_cfg.name, mode="record"):
            shared.record(bundle.trace, bundle.tensors)
        registry.counter("backend.base_records").inc()
        self._streams[key] = shared.packed_stream()
        if self.artifacts is not None:
            self.artifacts.save_base_stream(workload, self.config, base_cfg, shared.packed_stream())
        return shared

    def release(self, workload: str, results: bool = False) -> None:
        """Drop the cached bundle (tensors, contexts) of a workload (bounds memory).

        With ``results`` the workload's memoised simulation results are
        dropped too (disk-cache entries are kept).  The trace and base
        stream memo is kept: a later bundle rebuilds from the memoised
        trace, and later groups adopt the memoised streams.
        """
        key = (workload, self.config.num_branches, self.config.seed)
        self._bundles.pop(key, None)
        if results:
            self._results = {k: v for k, v in self._results.items() if k[0] != workload}

    def clear_cache(self, bundles: bool = False) -> int:
        """Drop every memoised result (long sweeps grow ``_results`` unboundedly).

        Returns the number of entries dropped.  With ``bundles`` the
        per-workload precomputation and the trace and base-stream memo
        are dropped too.  The persistent disk cache, if any, is untouched
        -- use ``runner.cache.clear()`` for that.
        """
        dropped = len(self._results)
        self._results.clear()
        if bundles:
            self._bundles.clear()
            self._traces.clear()
            self._streams.clear()
        return dropped

    # -- cache plumbing ---------------------------------------------------------

    def _digest(self, workload: str, name: str, overrides: Mapping[str, object]) -> str:
        return cache_digest(cache_key(workload, name, overrides, self.config))

    def digest(
        self, workload: str, name: str, overrides: Optional[Mapping[str, object]] = None
    ) -> str:
        """Content digest of one cell under this runner's config.

        The digest is the cell's identity in the disk
        :class:`~repro.core.results_io.ResultCache` and in run-ledger
        records -- the same bytes name the same result everywhere.
        """
        return self._digest(workload, name, overrides or {})

    def lookup_cached(
        self, workload: str, name: str, overrides: Optional[Mapping[str, object]] = None
    ) -> Optional[SimulationResult]:
        """Memory-then-disk cache lookup; promotes disk hits to the memo."""
        overrides = overrides or {}
        key = result_key(workload, name, overrides)
        if key in self._results:
            return self._results[key]
        if self.cache is not None:
            hit = self.cache.get(self._digest(workload, name, overrides))
            if hit is not None:
                self._results[key] = hit
                return hit
        return None

    def _admit(
        self, workload: str, name: str, overrides: Mapping[str, object], result: SimulationResult
    ) -> None:
        """Record a freshly simulated result in the memo and disk cache."""
        self._results[result_key(workload, name, overrides)] = result
        if self.cache is not None:
            self.cache.put(
                self._digest(workload, name, overrides),
                cache_key(workload, name, overrides, self.config),
                result,
            )

    # -- predictor construction ------------------------------------------------------

    def build_predictor(self, name: str, bundle: WorkloadBundle, base=None, **overrides):
        """Instantiate a predictor configuration by report name.

        Recognised names: any TSL preset (``tsl_8k`` .. ``tsl_512k``,
        ``tsl_inf``), ``llbp``, ``llbp_0lat``, ``llbpx``, ``llbpx_0lat``
        (``llbpx_optw`` is handled by :meth:`run_one`).  ``overrides``
        are applied to the LLBP/LLBP-X config dataclass.

        ``base`` optionally passes a
        :class:`~repro.tage.batched_state.SharedBase` whose stream the
        predictor's tail replays (usually from :meth:`shared_base`);
        without one the predictor owns its base and records it on its
        first ``step``.
        """
        if name == "llbpx_optw":
            raise KeyError("llbpx_optw is a three-pass cell; run it with run_one")
        tage_config, design = resolve_configs(name, self.config.scale, overrides)
        if design is None:
            return TageSCL(tage_config, bundle.tensors, base=base)
        family = LLBPX if isinstance(design, LLBPXConfig) else LLBP
        return family(design, tage_config, bundle.tensors, bundle.contexts, base=base)

    # -- running ----------------------------------------------------------------------

    def run_one(self, workload: str, name: str, use_cache: bool = True, **overrides) -> SimulationResult:
        """Simulate one (workload, configuration) pair, memoised.

        The memo key is the structured :func:`~repro.core.results_io.result_key`
        shared with the disk cache's content hash, so the two layers can
        never disagree (and name/override concatenation collisions are
        impossible).

        Every execution is recorded in ``self.report`` (the cell's wall
        seconds *including* any bundle build/load it paid for), so serial
        and direct-call runs populate per-cell timings exactly like pool
        runs do; cache hits record a ``cached`` cell.
        """
        if use_cache:
            cached = self.lookup_cached(workload, name, overrides)
            if cached is not None:
                self.report.record_cached(workload, name, overrides)
                return cached
        with span("cell", workload=workload, config=name):
            cell_start = time.perf_counter()
            bundle = self.bundle(workload)
            start = time.perf_counter()
            if name == "llbpx_optw":
                result = self._run_optw(workload, bundle, **overrides)
            else:
                predictor = self.build_predictor(name, bundle, **overrides)
                with span("simulate", workload=workload, config=name):
                    result = simulate(
                        predictor,
                        bundle.trace,
                        bundle.tensors,
                        warmup_fraction=self.config.warmup_fraction,
                    )
                result.predictor = name
            self.sim_seconds += time.perf_counter() - start
            self.sim_count += 1
            elapsed = time.perf_counter() - cell_start
            self.report.record_success(workload, name, overrides, elapsed)
            registry = obs_registry()
            registry.counter("runner.simulations").inc()
            registry.counter("runner.branches").inc(self.config.num_branches)
            registry.histogram("cell.seconds").observe(elapsed)
        if use_cache:
            self._admit(workload, name, overrides, result)
        return result

    def _run_optw(self, workload: str, bundle: WorkloadBundle, **overrides) -> SimulationResult:
        """Profile-then-replay Opt-W (see module docstring)."""
        base = self.shared_base(workload, resolve_configs("llbpx_optw", self.config.scale)[0])
        profile = self.build_predictor("llbpx", bundle, base=base, **overrides)
        simulate(profile, bundle.trace, bundle.tensors, warmup_fraction=self.config.warmup_fraction)
        deep_oracle = {cid: True for cid in profile.deep_history}
        candidates = []
        for oracle in ({}, deep_oracle):
            predictor = self.build_predictor(
                "llbpx", bundle, base=base, oracle_depths=oracle, **overrides
            )
            candidates.append(
                simulate(
                    predictor,
                    bundle.trace,
                    bundle.tensors,
                    warmup_fraction=self.config.warmup_fraction,
                )
            )
        best = min(candidates, key=lambda r: r.mispredictions)
        best.predictor = "llbpx_optw"
        return best

    def run_cells(
        self,
        cells: Sequence[Cell],
        jobs: int = 1,
        release_bundles: bool = True,
        progress: Optional[Callable[[str, str, SimulationResult], None]] = None,
    ) -> List[SimulationResult]:
        """Run arbitrary ``(workload, name, overrides)`` cells, cached.

        Cached cells (memory or disk) are resolved up front and duplicate
        uncached cells are simulated once; only unique misses run --
        serially for ``jobs <= 1``, otherwise fanned out one task per
        shared-base group over a process pool, heaviest first (see
        :mod:`repro.core.parallel`; workers resolve bundles through this
        runner's artifact store when one is attached).  Results come back
        in cell order and are bit-identical either way.  ``progress``
        fires once per cell (completion order under parallelism).
        Either way, a workload's cells sharing a base config run as one
        group over one base stream (:mod:`repro.core.batched`).

        Nothing is retried.  Every result reaches the memo and the disk
        cache as soon as it is simulated, so if a cell raises or a pool
        worker dies (``BrokenProcessPool``) the exception propagates with
        every finished result kept: rerunning over the same cache
        resumes, simulating only the cells still missing.  Requested
        cells that never resolved stay in ``self.report`` with an empty
        ``source``.
        """
        cells = [(workload, name, dict(overrides or {})) for workload, name, overrides in cells]
        out: Dict[int, SimulationResult] = {}
        # unique uncached cells, in first-appearance order (dicts preserve
        # insertion order); duplicates map to the same simulation
        pending: Dict[ResultKey, List[int]] = {}
        cell_of: Dict[ResultKey, Cell] = {}
        for index, (workload, name, overrides) in enumerate(cells):
            self.report.cell(workload, name, overrides)  # unresolved until it finishes
            cached = self.lookup_cached(workload, name, overrides)
            if cached is not None:
                out[index] = cached
                self.report.record_cached(workload, name, overrides)
                if progress is not None:
                    progress(workload, name, cached)
            else:
                key = result_key(workload, name, overrides)
                pending.setdefault(key, []).append(index)
                cell_of.setdefault(key, (workload, name, overrides))

        def finish(key: ResultKey, result: SimulationResult) -> None:
            workload, name, overrides = cell_of[key]
            self._admit(workload, name, overrides, result)
            for index in pending[key]:
                out[index] = result
                if progress is not None:
                    progress(workload, name, result)

        with span("run_cells", cells=len(cells), pending=len(pending), jobs=jobs):
            if jobs > 1 and len(pending) > 1:
                from repro.core.parallel import run_cells_parallel

                artifact_dir = str(self.artifacts.root) if self.artifacts is not None else None
                for (workload, name, overrides), result in run_cells_parallel(
                    self.config,
                    list(cell_of.values()),
                    jobs,
                    artifact_dir=artifact_dir,
                    report=self.report,
                    telemetry=obs_worker_config(),
                    memo=(self._traces, self._streams),
                ):
                    self.sim_count += 1
                    finish(result_key(workload, name, overrides), result)
            else:
                # serial: workload-major order so release_bundles bounds
                # memory.  Each workload's cells are partitioned into
                # shared-base groups (repro.core.batched); the ungrouped
                # rest goes through run_one, which records its report
                # entry itself.
                by_workload: Dict[str, List[ResultKey]] = {}
                for key in pending:
                    by_workload.setdefault(key[0], []).append(key)
                self._run_serial(by_workload, cell_of, finish, release_bundles)
        obs_flush()  # publish this process's metrics snapshot, if enabled
        return [out[index] for index in range(len(cells))]

    def _run_serial(self, by_workload, cell_of, finish, release_bundles) -> None:
        """The serial (single-process) leg of :meth:`run_cells`."""
        for workload, keys in by_workload.items():
            plan = plan_batches([cell_of[key] for key in keys], self.config.scale)
            if plan.fallbacks:
                obs_registry().counter("backend.fallbacks").inc(plan.fallbacks)
            for group in plan.groups:
                self.report.record_batched_group(len(group))
                for outcome in run_group(self, workload, group):
                    cell_w, name, overrides = outcome.cell
                    self.report.record_success(
                        cell_w, name, overrides, outcome.seconds, base_warm=outcome.base_warm
                    )
                    finish(result_key(cell_w, name, overrides), outcome.result)
            for cell_w, name, overrides in plan.singles:
                result = self.run_one(workload, name, use_cache=False, **overrides)
                finish(result_key(cell_w, name, overrides), result)
            if release_bundles:
                self.release(workload)

    def ledger_append(
        self,
        cells: Sequence[Cell],
        results: Sequence[SimulationResult],
        wall_seconds: float,
        cpu_seconds: float,
    ) -> None:
        """Append one run record to the attached ledger (no-op without one).

        The watchdog checks the record against its rolling baseline
        *before* folding it in, so flags compare against pre-regression
        history; flags are persisted inside the record and surfaced as a
        warning + ``run-regression`` event.  History is strictly
        best-effort: a ledger failure must never fail the run itself.
        """
        if self.ledger is None or not cells:
            return
        try:
            from repro.obs.ledger import build_run_record

            record = build_run_record(
                self,
                cells,
                results,
                wall_seconds,
                cpu_seconds,
                source=str(self.ledger_context.get("source", "api")),
                context={k: v for k, v in self.ledger_context.items() if k != "source"},
            )
            self._ledger_commit(record)
        except Exception:  # noqa: BLE001 - history must not break the run
            logger.exception("ledger append failed (run results are unaffected)")

    def ledger_append_session(
        self, wall_seconds: float, cpu_seconds: float, context: Optional[Dict[str, object]] = None
    ) -> None:
        """Session-level fallback append for ``run_cells``-driving harnesses.

        ``repro report`` figures call experiment functions that may never
        pass through :meth:`run_matrix`; the CLI calls this at the end of
        the command, and it appends one record covering the whole session
        (identity derived from the run report's cell set and the result
        memo) -- but only if nothing was appended already, so a matrix
        run is never double-counted.  Best-effort like the regular path.
        """
        if self.ledger is None or self.ledger_appends or not self.report.cells():
            return
        try:
            from repro.obs.ledger import build_session_record

            merged = {k: v for k, v in self.ledger_context.items() if k != "source"}
            merged.update(context or {})
            record = build_session_record(
                self,
                wall_seconds,
                cpu_seconds,
                source=str(self.ledger_context.get("source", "api")),
                context=merged,
            )
            self._ledger_commit(record)
        except Exception:  # noqa: BLE001 - history must not break the run
            logger.exception("session ledger append failed (run results are unaffected)")

    def _ledger_commit(self, record: Dict[str, object]) -> None:
        """Check against the rolling baseline, persist, surface any flags."""
        from repro.obs.regress import check_and_update

        self.ledger.prepare(record)
        flags = check_and_update(self.ledger.directory, record)
        self.ledger.append(record)
        self.ledger_appends += 1
        for flag in flags:
            logger.warning(
                "regression [%s/%s] run %s: %s",
                flag.get("severity"),
                flag.get("kind"),
                record.get("run_id"),
                flag.get("detail"),
            )
        if flags:
            emit_event(
                "run-regression",
                run_id=record.get("run_id"),
                kinds=[flag.get("kind") for flag in flags],
            )

    def run_matrix(
        self,
        workloads: Sequence[str],
        names: Sequence[str],
        release_bundles: bool = True,
        progress: Optional[Callable[[str, str, SimulationResult], None]] = None,
        jobs: int = 1,
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Run every configuration on every workload (workload-major).

        Returns ``{workload: {config: result}}``.  With
        ``release_bundles`` the per-workload precomputation is dropped as
        soon as all its configurations finished, bounding memory.
        ``jobs > 1`` distributes uncached workloads over a process pool;
        results are bit-identical to the serial path.

        Every completed matrix appends one record to the attached run
        ledger (wall/CPU timings, digests, report, metrics) -- one write
        per run, nothing per cell or per branch.
        """
        cells: List[Cell] = [(workload, name, {}) for workload in workloads for name in names]
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        results = self.run_cells(
            cells, jobs=jobs, release_bundles=release_bundles, progress=progress
        )
        self.ledger_append(
            cells,
            results,
            time.perf_counter() - wall_start,
            time.process_time() - cpu_start,
        )
        table: Dict[str, Dict[str, SimulationResult]] = {workload: {} for workload in workloads}
        for (workload, name, _), result in zip(cells, results):
            table[workload][name] = result
        return table


def reduction(baseline: SimulationResult, other: SimulationResult) -> float:
    """Relative MPKI reduction of ``other`` vs ``baseline`` in percent."""
    if baseline.mpki == 0:
        return 0.0
    return 100.0 * (baseline.mpki - other.mpki) / baseline.mpki


@dataclass
class ComparisonRow:
    """One workload's line in a Fig 4/12-style comparison table."""

    workload: str
    baseline_mpki: float
    reductions: Dict[str, float] = field(default_factory=dict)


def comparison_table(
    matrix: Dict[str, Dict[str, SimulationResult]], baseline: str
) -> List[ComparisonRow]:
    """Reduce a run matrix to per-workload MPKI reductions vs ``baseline``."""
    rows: List[ComparisonRow] = []
    for workload, results in matrix.items():
        base = results[baseline]
        row = ComparisonRow(workload=workload, baseline_mpki=base.mpki)
        for name, result in results.items():
            if name != baseline:
                row.reductions[name] = reduction(base, result)
        rows.append(row)
    return rows


def geometric_mean_mpki(results: Sequence[SimulationResult]) -> float:
    """Geometric-mean MPKI across workloads (robust to scale differences)."""
    if not results:
        raise ValueError("need at least one result")
    product = 1.0
    for result in results:
        product *= max(result.mpki, 1e-9)
    return product ** (1.0 / len(results))

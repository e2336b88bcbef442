"""Persistent run ledger: append-only history of every matrix run.

The ledger is the longitudinal complement to :mod:`repro.obs.telemetry`:
telemetry observes *one* run in depth and is discarded afterwards; the
ledger keeps one compact record per run forever, so throughput drift,
cache-health decay, and -- most importantly -- result-digest changes are
visible across days of CLI invocations, service jobs, and benchmark
sweeps sharing a cache directory.

Storage follows the repo's crash-safety house style:

* appends go to a per-pid ``segment-<pid>.jsonl`` (one JSON line per
  record, flushed per write), so concurrent writers never interleave
  within a line and a SIGKILL mid-append can only tear the final line of
  the killer's own segment;
* reads tolerate torn tails by skipping unparseable lines, exactly like
  :func:`repro.obs.events.read_events`;
* the advisory ``index.json`` (per-segment sizes and record counts, for
  fast ``count()``) is replaced atomically via the same
  ``tmp.<pid>`` + ``os.replace`` discipline as ``ResultCache``.

Every record is self-describing: matrix digest (identity of *what* ran),
result digest (identity of *what came out* -- a change for the same
matrix digest is a correctness alarm, see :mod:`repro.obs.regress`),
host/pid/source, wall and CPU seconds, branches per second, the full
:class:`~repro.core.run_report.RunReport` dict, and the merged metrics
snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = [
    "LEDGER_DIRNAME",
    "RunLedger",
    "build_run_record",
    "build_session_record",
    "matrix_digest",
    "result_digest",
]

#: ledger directory, relative to the result-cache directory
LEDGER_DIRNAME = ".ledger"

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"
INDEX_FILENAME = "index.json"


def matrix_digest(cell_digests: Iterable[str]) -> str:
    """Identity of *what* ran: hash over the sorted cell digests.

    Cell digests (:meth:`repro.core.runner.Runner.digest`) already cover
    workload, config, overrides, and run parameters, so two runs share a
    matrix digest iff they executed the same cells under the same
    parameters -- the unit the regression watchdog compares across runs.
    """
    payload = "\n".join(sorted(cell_digests))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def result_digest(result_dicts: Sequence[Mapping[str, object]]) -> str:
    """Identity of *what came out*: hash over the serialized results.

    Results are hashed in cell order (matrix order is deterministic), so
    for a fixed matrix digest this digest must be bit-stable across
    re-runs -- simulation is a pure function of the cell key.  A change
    is flagged as a correctness alarm by :mod:`repro.obs.regress`.
    """
    payload = json.dumps(list(result_dicts), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RunLedger:
    """Append-only, crash-safe run-history store in one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seq = 0

    # -- paths --------------------------------------------------------------

    def _segment_path(self) -> Path:
        return self.directory / ("%s%d%s" % (SEGMENT_PREFIX, os.getpid(), SEGMENT_SUFFIX))

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_FILENAME

    # -- writing ------------------------------------------------------------

    def _run_id(self, ts: float) -> str:
        self._seq += 1
        token = "%s|%d|%.9f|%d" % (socket.gethostname(), os.getpid(), ts, self._seq)
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:12]

    def prepare(self, record: Dict[str, object]) -> Dict[str, object]:
        """Fill a record's identity fields (idempotent).

        Callers that inspect or baseline-check a record before appending
        it (see :meth:`repro.core.runner.Runner._ledger_commit`) call
        this first, so the baseline's host key and ``last_run_id``/
        ``last_ts`` provenance see the final identity.
        """
        ts = float(record.get("ts") or time.time())
        record.setdefault("ts", ts)
        record.setdefault("run_id", self._run_id(ts))
        record.setdefault("host", socket.gethostname())
        record.setdefault("pid", os.getpid())
        record.setdefault("source", "api")
        record.setdefault("regressions", [])
        return record

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Append one run record; fills identity fields if absent.

        The write is a single flushed line in this process's own segment
        -- no cross-process file sharing, so concurrent runners sharing
        the ledger directory can never corrupt each other's records.
        """
        self.prepare(record)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with open(self._segment_path(), "a+b") as handle:
            # heal a torn tail first: a crash mid-append can leave the
            # segment without its final newline, and writing straight on
            # would corrupt this record too instead of just losing that one
            handle.seek(0, os.SEEK_END)
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        self._update_index()
        return record

    def _update_index(self) -> None:
        """Rewrite the advisory index atomically (temp + rename).

        The index is a cache, never the source of truth: readers rescan
        any segment whose size changed since it was indexed, so a crash
        between the segment append and the index replace costs nothing.
        """
        segments: Dict[str, Dict[str, int]] = {}
        total = 0
        for path in sorted(self.directory.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX)):
            count = sum(1 for _ in self._iter_segment(path))
            segments[path.name] = {"size": path.stat().st_size, "records": count}
            total += count
        index = {"version": 1, "records": total, "segments": segments}
        tmp = self.index_path.with_name("%s.tmp.%d" % (INDEX_FILENAME, os.getpid()))
        try:
            tmp.write_text(json.dumps(index, sort_keys=True))
            os.replace(tmp, self.index_path)
        except OSError:
            pass

    # -- reading ------------------------------------------------------------

    @staticmethod
    def _iter_segment(path: Path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail of a killed writer
                    if isinstance(record, dict):
                        yield record
        except OSError:
            return

    def records(self) -> List[Dict[str, object]]:
        """Every readable record across all segments, oldest first."""
        records: List[Dict[str, object]] = []
        for path in sorted(self.directory.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX)):
            records.extend(self._iter_segment(path))
        records.sort(key=lambda r: (r.get("ts", 0.0), str(r.get("run_id", ""))))
        return records

    def count(self) -> int:
        """Record count; trusts the index only for unchanged segments."""
        indexed: Dict[str, Dict[str, int]] = {}
        try:
            index = json.loads(self.index_path.read_text())
            if isinstance(index, dict):
                indexed = dict(index.get("segments", {}))
        except (OSError, ValueError):
            pass
        total = 0
        for path in self.directory.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX):
            entry = indexed.get(path.name)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if isinstance(entry, dict) and entry.get("size") == size:
                total += int(entry.get("records", 0))
            else:
                total += sum(1 for _ in self._iter_segment(path))
        return total

    def get(self, run_id: str) -> Dict[str, object]:
        """Look up one record by full run id or unique prefix.

        Raises :class:`KeyError` for an unknown id or an ambiguous prefix.
        """
        matches = [
            record
            for record in self.records()
            if str(record.get("run_id", "")).startswith(run_id)
        ]
        if not matches:
            raise KeyError(f"no ledger record matching run id {run_id!r}")
        exact = [record for record in matches if record.get("run_id") == run_id]
        if exact:
            return exact[0]
        if len(matches) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous ({len(matches)} matches)")
        return matches[0]


def build_run_record(
    runner,
    cells: Sequence,
    results: Sequence,
    wall_seconds: float,
    cpu_seconds: float,
    source: str = "api",
    context: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one ledger record from a finished runner + its results.

    The record embeds the full run report (with cache/artifact health and
    cost-model accuracy), the merged metrics snapshot (all processes when
    a telemetry session is live, else this process's registry), and the
    throughput figures the regression watchdog compares.
    """
    from repro.core.results_io import result_to_dict
    from repro.obs.metrics import merge_snapshots, registry
    from repro.obs.telemetry import current as obs_current
    from repro.obs.telemetry import merged_metrics

    from repro.core.results_io import result_to_dict

    cell_digests = [runner.digest(workload, name, overrides) for workload, name, overrides in cells]
    workloads: List[str] = []
    configs: List[str] = []
    for workload, name, _overrides in cells:
        if workload not in workloads:
            workloads.append(workload)
        if name not in configs:
            configs.append(name)
    return _assemble_record(
        runner,
        matrix=matrix_digest(cell_digests),
        results_id=result_digest([result_to_dict(result) for result in results]),
        workloads=workloads,
        configs=configs,
        cell_count=len(cells),
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        source=source,
        context=context,
    )


def build_session_record(
    runner,
    wall_seconds: float,
    cpu_seconds: float,
    source: str = "cli",
    context: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Fallback record for harnesses driving ``run_cells`` directly.

    ``repro report`` figures call experiment functions that may never go
    through ``run_matrix``; this builds one record for the whole CLI
    session from the run report's cell set (matrix identity: hashed cell
    keys + run parameters) and the runner's memoised results (result
    identity) instead of an explicit ``(cells, results)`` pair.
    """
    from repro.core.results_io import result_to_dict

    report_cells = runner.report.cells()
    keys = sorted(
        "%s|%s|%s|%d|%d|%s|%s"
        % (
            cell.workload,
            cell.config,
            cell.overrides,
            runner.config.num_branches,
            runner.config.scale,
            runner.config.seed,
            runner.config.warmup_fraction,
        )
        for cell in report_cells
    )
    matrix = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]
    memo = sorted(runner._results.items(), key=lambda kv: repr(kv[0]))
    results_id = result_digest(
        [{"key": repr(key), "result": result_to_dict(result)} for key, result in memo]
    )
    workloads: List[str] = []
    configs: List[str] = []
    for cell in report_cells:
        if cell.workload not in workloads:
            workloads.append(cell.workload)
        if cell.config not in configs:
            configs.append(cell.config)
    return _assemble_record(
        runner,
        matrix=matrix,
        results_id=results_id,
        workloads=workloads,
        configs=configs,
        cell_count=len(report_cells),
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        source=source,
        context=context,
    )


def _assemble_record(
    runner,
    matrix: str,
    results_id: str,
    workloads: List[str],
    configs: List[str],
    cell_count: int,
    wall_seconds: float,
    cpu_seconds: float,
    source: str,
    context: Optional[Mapping[str, object]],
) -> Dict[str, object]:
    from repro.obs.metrics import merge_snapshots, registry
    from repro.obs.telemetry import current as obs_current
    from repro.obs.telemetry import merged_metrics

    session = obs_current()
    if session is not None:
        metrics = merged_metrics(session.directory)
    else:
        metrics = merge_snapshots([registry().snapshot()])
    totals = runner.report.totals()
    total_cells = int(totals["cells"]) or cell_count
    branches = cell_count * runner.config.num_branches
    # throughput counts only simulated branches: a fully cached replay
    # finishes in milliseconds and must not inflate the rolling baseline
    # the regression watchdog compares real simulations against
    sim_branches = int(totals["simulated"]) * runner.config.num_branches
    bps = sim_branches / wall_seconds if (wall_seconds > 0 and sim_branches) else 0.0
    hit_rate = float(totals["cached"]) / total_cells if total_cells else 0.0
    return {
        "source": source,
        "context": dict(context or {}),
        "workloads": workloads,
        "configs": configs,
        "backend": runner.backend,
        "branches": branches,
        "scale": runner.config.scale,
        "matrix_digest": matrix,
        "result_digest": results_id,
        "cells": cell_count,
        "cache_hit_rate": round(hit_rate, 4),
        "wall_seconds": round(float(wall_seconds), 6),
        "cpu_seconds": round(float(cpu_seconds), 6),
        "branches_per_sec": round(bps, 2),
        "report": runner.report.to_dict(runner),
        "metrics": metrics,
    }

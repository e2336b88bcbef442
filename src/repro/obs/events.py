"""Crash-safe JSONL event sink and merger.

Each process appends to its own ``events-<pid>.jsonl`` inside the
telemetry directory — no cross-process file sharing, so a worker killed
mid-write can only ever damage the final line of its own file.
:func:`read_events` therefore skips lines that fail to parse (the torn
tail of a killed worker) instead of raising, and the merged stream is
simply the concatenation of every per-pid file sorted by timestamp.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["EventSink", "compact_events", "read_events"]

EVENT_FILE_PREFIX = "events-"
EVENT_FILE_SUFFIX = ".jsonl"

#: rolled-segment token: ``events-merged.jsonl`` / ``metrics-merged.json``
#: match the readers' globs but are never candidates for compaction
#: themselves (their token is not a pid)
MERGED_TOKEN = "merged"


class EventSink:
    """Append-only JSONL writer for one process.

    Every event is written and flushed as a single line so the file is
    valid (bar at most one torn tail line) at every instant.  The sink
    records the pid it was opened in and refuses to write from another
    process — a forked child must open its own sink.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.path = self.directory / ("%s%d%s" % (EVENT_FILE_PREFIX, self.pid, EVENT_FILE_SUFFIX))
        self._fh = open(self.path, "a", encoding="utf-8")
        self._closed = False

    def emit(self, event_type: str, **fields: object) -> None:
        if self._closed or os.getpid() != self.pid:
            return
        event: Dict[str, object] = {"ts": time.time(), "pid": self.pid, "type": event_type}
        event.update(fields)
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if os.getpid() == self.pid:
                self._fh.close()

    def compact(self) -> Dict[str, int]:
        """Roll dead-pid files in this sink's directory; see :func:`compact_events`."""
        return compact_events(self.directory)


def _iter_file(path: Path) -> Iterator[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn tail of a killed worker
                if isinstance(event, dict):
                    yield event
    except OSError:
        return


def read_events(
    directory: Union[str, Path],
    event_type: Optional[str] = None,
    where: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """All events from every per-pid file, sorted by timestamp.

    Tolerates missing directories, unreadable files, and truncated
    lines; optionally filters to one ``event_type`` and/or to events
    whose fields match every ``where`` entry (the experiment service
    uses ``where={"job": job_id}`` to stream one job's progress).
    """
    directory = Path(directory)
    events: List[Dict[str, object]] = []
    if not directory.is_dir():
        return events
    for path in sorted(directory.glob(EVENT_FILE_PREFIX + "*" + EVENT_FILE_SUFFIX)):
        for event in _iter_file(path):
            if event_type is not None and event.get("type") != event_type:
                continue
            if where is not None and any(event.get(k) != v for k, v in where.items()):
                continue
            events.append(event)
    events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
    return events


def _dead_pid_files(directory: Path, prefix: str, suffix: str) -> List[Path]:
    """Per-pid files whose writer process is gone (never the caller's)."""
    from repro.common.fsio import pid_alive

    dead: List[Path] = []
    for path in sorted(directory.glob(prefix + "*" + suffix)):
        token = path.name[len(prefix):][: -len(suffix)]
        try:
            pid = int(token)
        except ValueError:
            continue  # rolled segment or foreign file, never compacted
        if pid != os.getpid() and not pid_alive(pid):
            dead.append(path)
    return dead


def compact_events(directory: Union[str, Path]) -> Dict[str, int]:
    """Merge dead-pid telemetry files into rolled segments.

    A long-lived daemon accumulates one ``events-<pid>.jsonl`` and one
    ``metrics-<pid>.json`` per job-runner worker process; once the
    writer is dead its files are frozen, so they can be folded into a
    single ``events-merged.jsonl`` (events re-emitted in timestamp
    order, torn tails dropped) and ``metrics-merged.json`` (snapshot
    merge: counters/histograms sum, gauges last-writer) and deleted.
    Readers need no migration -- the rolled names match the same globs
    ``read_events``/``merged_metrics`` already scan.

    Only files of provably dead pids are touched (``pid_alive``), never
    the calling process's own, so compaction is safe to run while a
    service is serving.  Returns counts for the CLI/startup log line.
    """
    directory = Path(directory)
    stats = {"event_files": 0, "events": 0, "metrics_files": 0}
    if not directory.is_dir():
        return stats

    merged_events = directory / (EVENT_FILE_PREFIX + MERGED_TOKEN + EVENT_FILE_SUFFIX)
    dead = _dead_pid_files(directory, EVENT_FILE_PREFIX, EVENT_FILE_SUFFIX)
    if dead:
        events: List[Dict[str, object]] = []
        for path in dead:
            events.extend(_iter_file(path))
        events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
        with open(merged_events, "a", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
            fh.flush()
        for path in dead:
            try:
                path.unlink()
            except OSError:
                pass
        stats["event_files"] = len(dead)
        stats["events"] = len(events)

    # metrics snapshots: fold dead-pid files into the rolled snapshot
    # (import here: telemetry imports this module at load time)
    from repro.obs.metrics import merge_snapshots

    metrics_prefix, metrics_suffix = "metrics-", ".json"
    merged_metrics_path = directory / (metrics_prefix + MERGED_TOKEN + metrics_suffix)
    dead = _dead_pid_files(directory, metrics_prefix, metrics_suffix)
    if dead:
        snapshots: List[Dict[str, object]] = []
        try:
            existing = json.loads(merged_metrics_path.read_text())
            if isinstance(existing, dict):
                snapshots.append(existing)
        except (OSError, ValueError):
            pass
        for path in dead:
            try:
                snap = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(snap, dict):
                snapshots.append(snap)
        merged = merge_snapshots(snapshots)
        tmp = merged_metrics_path.with_name(merged_metrics_path.name + ".tmp.%d" % os.getpid())
        try:
            tmp.write_text(json.dumps(merged, sort_keys=True))
            os.replace(tmp, merged_metrics_path)
        except OSError:
            return stats  # keep sources: nothing was durably merged
        for path in dead:
            try:
                path.unlink()
            except OSError:
                pass
        stats["metrics_files"] = len(dead)
    return stats

"""Render a merged telemetry run: span tree, top metrics, shared-base groups.

Works purely from the files in a telemetry directory (events + per-pid
metrics snapshots), so it can be pointed at the output of a crashed run
— killed workers contribute whatever they flushed before dying.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.obs.events import read_events
from repro.obs.metrics import Histogram
from repro.obs.telemetry import merged_metrics

__all__ = ["load_run", "render_report", "render_trend"]


class SpanNode:
    __slots__ = ("name", "span_id", "parent_id", "pid", "ts_start", "wall", "cpu", "attrs", "children")

    def __init__(self, event: Dict[str, object]) -> None:
        self.name = str(event.get("name", "?"))
        self.span_id = str(event.get("span_id", ""))
        self.parent_id = event.get("parent_id")
        self.pid = event.get("pid")
        self.ts_start = float(event.get("ts_start", 0.0))  # type: ignore[arg-type]
        self.wall = float(event.get("wall_seconds", 0.0))  # type: ignore[arg-type]
        self.cpu = float(event.get("cpu_seconds", 0.0))  # type: ignore[arg-type]
        attrs = event.get("attrs")
        self.attrs = attrs if isinstance(attrs, dict) else {}
        self.children: List["SpanNode"] = []

    @property
    def self_wall(self) -> float:
        return max(0.0, self.wall - sum(c.wall for c in self.children))


def build_span_tree(events: List[Dict[str, object]]) -> List[SpanNode]:
    """Roots of the merged span forest (orphans promoted to roots)."""
    nodes = {
        str(e.get("span_id")): SpanNode(e)
        for e in events
        if e.get("type") == "span" and e.get("span_id")
    }
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(str(node.parent_id)) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.ts_start)
    roots.sort(key=lambda n: n.ts_start)
    return roots


def load_run(directory: Union[str, Path]) -> Dict[str, object]:
    """Everything a report needs: events, span roots, merged metrics."""
    directory = Path(directory)
    events = read_events(directory)
    return {
        "directory": directory,
        "events": events,
        "spans": build_span_tree(events),
        "metrics": merged_metrics(directory, include_local=False),
        "pids": sorted({e.get("pid") for e in events if isinstance(e.get("pid"), int)}),
    }


def _fmt_attrs(attrs: Dict[str, object]) -> str:
    if not attrs:
        return ""
    return " " + " ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))


def _render_span(node: SpanNode, depth: int, lines: List[str]) -> None:
    label = "%s%s%s" % ("  " * depth, node.name, _fmt_attrs(node.attrs))
    lines.append(
        "%-58s total %9.3fs  self %9.3fs  cpu %9.3fs  [pid %s]"
        % (label[:58], node.wall, node.self_wall, node.cpu, node.pid)
    )
    for child in node.children:
        _render_span(child, depth + 1, lines)


def render_report(directory: Union[str, Path], top: int = 12) -> str:
    """A human-readable merged-run report (the ``obs-report`` payload)."""
    run = load_run(directory)
    events: List[Dict[str, object]] = run["events"]  # type: ignore[assignment]
    spans: List[SpanNode] = run["spans"]  # type: ignore[assignment]
    metrics: Dict[str, object] = run["metrics"]  # type: ignore[assignment]
    lines: List[str] = []
    lines.append("telemetry run: %s" % run["directory"])
    lines.append(
        "events: %d from %d process(es)" % (len(events), len(run["pids"]))  # type: ignore[arg-type]
    )
    lines.append("")
    lines.append("span tree (wall/self/cpu seconds):")
    if spans:
        for root in spans:
            _render_span(root, 1, lines)
    else:
        lines.append("  (no spans recorded)")

    counters: Dict[str, float] = dict(metrics.get("counters", {}))  # type: ignore[arg-type]
    gauges: Dict[str, float] = dict(metrics.get("gauges", {}))  # type: ignore[arg-type]
    histograms: Dict[str, Dict[str, object]] = dict(metrics.get("histograms", {}))  # type: ignore[arg-type]

    lines.append("")
    lines.append("top counters:")
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-abs(kv[1]), kv[0]))[:top]
        for name, value in ranked:
            lines.append("  %-48s %s" % (name, _fmt_num(value)))
    else:
        lines.append("  (none)")

    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges)[:top]:
            lines.append("  %-48s %s" % (name, _fmt_num(gauges[name])))

    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / p50 / p90 / p99):")
        for name in sorted(histograms):
            hist = Histogram.from_dict(name, histograms[name])
            lines.append(
                "  %-38s %6d  %8.4f  %8.4f  %8.4f  %8.4f"
                % (name, hist.count, hist.mean, hist.percentile(50), hist.percentile(90), hist.percentile(99))
            )

    batched_groups = [e for e in events if e.get("type") == "batched-group"]
    fallbacks = counters.get("backend.fallbacks", 0)
    if batched_groups or fallbacks:
        sizes = sorted((int(e.get("lanes", 0)) for e in batched_groups), reverse=True)
        lines.append("")
        lines.append("shared-base groups:")
        lines.append(
            "  batched groups: %d  lanes: %d  max group: %d  ungrouped cells: %d"
            % (len(sizes), sum(sizes), sizes[0] if sizes else 0, int(fallbacks))
        )
        if sizes:
            lines.append("  group sizes: %s" % ", ".join(str(s) for s in sizes))
        base_records = counters.get("backend.base_records", 0)
        base_loads = counters.get("backend.base_loads", 0)
        if base_records or base_loads:
            lines.append(
                "  base streams: %d recorded, %d loaded (%s stream bytes)"
                % (
                    int(base_records),
                    int(base_loads),
                    _fmt_num(counters.get("backend.base_bytes", 0)),
                )
            )
    return "\n".join(lines)


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return "%d" % int(value)
    return "%.6g" % value


def render_trend(records: List[Dict[str, object]], limit: int = 8) -> str:
    """Longitudinal trend lines over ledger records (``repro history``).

    Records are grouped by baseline identity (matrix digest, backend,
    host); each group renders its recent branches/sec series with the
    delta of the newest run against the group mean, plus a count of
    flagged runs -- the at-a-glance answer to "has this matrix gotten
    slower since last week?".
    """
    groups: Dict[tuple, List[Dict[str, object]]] = {}
    for record in records:
        key = (
            str(record.get("matrix_digest", "")),
            str(record.get("backend", "")),
            str(record.get("host", "")),
        )
        groups.setdefault(key, []).append(record)
    lines: List[str] = ["throughput trend (branches/sec, oldest -> newest):"]
    if not groups:
        lines.append("  (no runs recorded)")
        return "\n".join(lines)
    for key in sorted(groups):
        matrix, backend, host = key
        series = [float(r.get("branches_per_sec", 0.0) or 0.0) for r in groups[key]]
        measured = [bps for bps in series if bps > 0]
        flagged = sum(1 for r in groups[key] if r.get("regressions"))
        label = "%s %s@%s" % (matrix[:12], backend or "?", host or "?")
        if not measured:
            lines.append("  %-40s %d run(s), all cached" % (label, len(series)))
            continue
        mean = sum(measured) / len(measured)
        latest = measured[-1]
        delta = 100.0 * (latest - mean) / mean if mean else 0.0
        tail = " ".join(_fmt_num(round(bps)) for bps in measured[-limit:])
        line = "  %-40s %s  (latest %+.1f%% vs mean)" % (label, tail, delta)
        if flagged:
            line += "  [%d flagged]" % flagged
        lines.append(line)
    return "\n".join(lines)

"""Process-safe metrics: counters, gauges, histograms, and a registry.

Each process owns exactly one :class:`MetricsRegistry` (via
:func:`registry`), guarded by a pid check so a forked pool worker gets a
fresh, empty registry instead of inheriting — and later double-counting —
the parent's totals.  Cross-process aggregation is file-based: every
process serialises its registry with :meth:`MetricsRegistry.snapshot`
into its own ``metrics-<pid>.json`` (written atomically by
:mod:`repro.obs.telemetry`), and the parent merges the per-pid snapshots
with :func:`merge_snapshots` after the pool drains.  There is no shared
memory and no lock shared between processes, so a worker killed by
SIGKILL can never corrupt anyone else's metrics — at worst its own last
snapshot is slightly stale, which the crash-merge test pins as exactly
the counts it had already flushed.

Existing plain-int counters on ``ResultCache``/``ArtifactStore`` are
migrated onto the registry through *collectors*: weakly-referenced
callables polled at snapshot time whose key/value dicts are folded into
the counter section under a prefix.
This keeps the per-instance attribute API (tests assign
``cache.quarantined = 2``) while making every instance visible to
telemetry without explicit flushing.
"""

from __future__ import annotations

import inspect
import math
import os
import threading
import weakref
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "registry",
    "reset_registry",
]

# Upper bounds (seconds) for duration histograms: sub-millisecond cache
# probes through multi-minute matrix runs.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
    600.0,
)


class Counter:
    """A monotonically increasing count owned by one process."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merge keeps the most recent snapshot's."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    follows the last bound.  Fixed buckets make cross-process merging a
    plain element-wise sum, at the cost of percentile resolution — a
    percentile is reported as the upper edge of the bucket containing
    it (the overflow bucket reports ``max_seen``).
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "max_seen")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.max_seen = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value > self.max_seen:
            self.max_seen = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0..100) from the buckets."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * pct / 100.0))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max_seen
        return self.max_seen

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "max": self.max_seen,
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, object]) -> "Histogram":
        hist = cls(name, data.get("bounds", DEFAULT_SECONDS_BUCKETS))  # type: ignore[arg-type]
        counts = list(data.get("counts", []))  # type: ignore[arg-type]
        if len(counts) == len(hist.counts):
            hist.counts = [int(c) for c in counts]
        hist.sum = float(data.get("sum", 0.0))  # type: ignore[arg-type]
        hist.count = int(data.get("count", 0))  # type: ignore[arg-type]
        hist.max_seen = float(data.get("max", 0.0))  # type: ignore[arg-type]
        return hist


CollectorFn = Callable[[], Mapping[str, float]]


class MetricsRegistry:
    """One process's instruments plus pull-collectors for legacy counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Tuple[str, weakref.ref]] = []

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, bounds)
            return inst

    def register_collector(self, prefix: str, fn: CollectorFn) -> None:
        """Poll ``fn()`` at snapshot time, folding its dict into counters.

        ``fn`` is held weakly (``WeakMethod`` for bound methods) so that
        registering a store never extends its lifetime; dead collectors
        are pruned on the next snapshot.
        """
        ref: weakref.ref
        if inspect.ismethod(fn):
            ref = weakref.WeakMethod(fn)
        else:
            ref = weakref.ref(fn)
        with self._lock:
            self._collectors.append((prefix, ref))

    def snapshot(self) -> Dict[str, object]:
        """Serialise everything, including collector-backed counters."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.to_dict() for name, h in self._histograms.items()}
            live: List[Tuple[str, weakref.ref]] = []
            polled: List[Tuple[str, CollectorFn]] = []
            for prefix, ref in self._collectors:
                fn = ref()
                if fn is not None:
                    live.append((prefix, ref))
                    polled.append((prefix, fn))
            self._collectors = live
        # Poll outside the lock: collectors are arbitrary store methods.
        for prefix, fn in polled:
            try:
                values = fn()
            except Exception:
                continue
            for key, value in values.items():
                if isinstance(value, (int, float)):
                    name = "%s.%s" % (prefix, key)
                    counters[name] = counters.get(name, 0.0) + float(value)
        return {
            "pid": os.getpid(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()


def merge_snapshots(snapshots: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Merge per-process snapshots: sum counters and histogram buckets,
    last-writer-wins gauges (file order, parent last by convention)."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    pids: List[int] = []
    for snap in snapshots:
        pid = snap.get("pid")
        if isinstance(pid, int):
            pids.append(pid)
        for name, value in dict(snap.get("counters", {})).items():  # type: ignore[arg-type]
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in dict(snap.get("gauges", {})).items():  # type: ignore[arg-type]
            gauges[name] = float(value)
        for name, data in dict(snap.get("histograms", {})).items():  # type: ignore[arg-type]
            incoming = Histogram.from_dict(name, data)
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = incoming
            elif existing.bounds == incoming.bounds:
                existing.counts = [a + b for a, b in zip(existing.counts, incoming.counts)]
                existing.sum += incoming.sum
                existing.count += incoming.count
                existing.max_seen = max(existing.max_seen, incoming.max_seen)
    return {
        "pids": sorted(set(pids)),
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: h.to_dict() for name, h in histograms.items()},
    }


_REGISTRY: Optional[MetricsRegistry] = None
_REGISTRY_PID: Optional[int] = None


def registry() -> MetricsRegistry:
    """The calling process's registry; fresh after a ``fork``."""
    global _REGISTRY, _REGISTRY_PID
    pid = os.getpid()
    if _REGISTRY is None or _REGISTRY_PID != pid:
        _REGISTRY = MetricsRegistry()
        _REGISTRY_PID = pid
    return _REGISTRY


def reset_registry() -> None:
    """Drop all instruments (test isolation; also used on worker init)."""
    registry().reset()

"""Persistence for simulation results.

Experiment campaigns are expensive; this module serialises
:class:`~repro.core.simulator.SimulationResult` collections to JSON so
analyses (or the EXPERIMENTS.md comparison) can be re-run without
re-simulating.  Round-trips preserve every field.

It also provides the persistent, content-addressed result cache the
:class:`~repro.core.runner.Runner` consults before simulating.  Cache
entries are keyed by a hash of everything a simulation's outcome depends
on -- workload, configuration name, config overrides, the resolved
configuration dataclasses, the :class:`~repro.core.runner.RunnerConfig`,
the trace-generator version and :data:`MODEL_VERSION` -- so overlapping
experiments (the Table I baselines reappearing in Figs 4/12/13) and
repeat invocations skip simulation entirely, while any change to run
parameters, presets, generator or model semantics misses naturally.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.batched import resolve_configs
from repro.core.faults import active_injector, stale_temp
from repro.core.simulator import SimulationResult
from repro.obs.metrics import registry as obs_registry
from repro.traces.generator import GENERATOR_VERSION

_FORMAT_VERSION = 1
#: version of the on-disk cache-entry layout (not the key hash)
CACHE_FORMAT_VERSION = 1

#: version of the simulated predictor semantics.  Bump it with any kernel
#: or preset change that alters a result; ``tests/golden_results.json``
#: records the version its digests were computed under.
MODEL_VERSION = 1

#: structured identity of one simulation cell: ``(workload, config name,
#: frozen overrides)``.  Shared by the Runner's in-memory memo and the
#: disk cache's key hash, so the two can never disagree.
ResultKey = Tuple[str, str, Tuple[Tuple[str, object], ...]]


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    return {
        "workload": result.workload,
        "predictor": result.predictor,
        "instructions": result.instructions,
        "conditional_branches": result.conditional_branches,
        "mispredictions": result.mispredictions,
        "warmup_mispredictions": result.warmup_mispredictions,
        "total_instructions": result.total_instructions,
        "stats": result.stats,
        "extra": result.extra,
    }


def result_from_dict(data: Dict[str, object]) -> SimulationResult:
    return SimulationResult(
        workload=str(data["workload"]),
        predictor=str(data["predictor"]),
        instructions=int(data["instructions"]),
        conditional_branches=int(data["conditional_branches"]),
        mispredictions=int(data["mispredictions"]),
        warmup_mispredictions=int(data["warmup_mispredictions"]),
        total_instructions=int(data["total_instructions"]),
        stats={str(k): int(v) for k, v in dict(data.get("stats", {})).items()},
        extra={str(k): float(v) for k, v in dict(data.get("extra", {})).items()},
    )


def save_results(results: Iterable[SimulationResult], path: Union[str, Path]) -> None:
    """Write a result collection as JSON."""
    payload = {
        "version": _FORMAT_VERSION,
        "results": [result_to_dict(result) for result in results],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_results(path: Union[str, Path]) -> List[SimulationResult]:
    """Read a result collection previously written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported results format version {version!r}")
    return [result_from_dict(entry) for entry in payload["results"]]


# -- cache keys ---------------------------------------------------------------


def _freeze(value: object) -> object:
    """Recursively convert a value to a hashable, order-stable form."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    return value


def freeze_overrides(overrides: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable form of a config-override mapping."""
    if not overrides:
        return ()
    return tuple(sorted((str(k), _freeze(v)) for k, v in overrides.items()))


def result_key(
    workload: str, name: str, overrides: Optional[Mapping[str, object]] = None
) -> ResultKey:
    """Structured identity of one simulation cell.

    Replaces the old ``name + repr(sorted(overrides.items()))`` string
    concatenation, which could collide (a config name embedding a
    bracket, overrides whose repr happens to extend the name) and broke
    on unhashable override values.
    """
    return (workload, name, freeze_overrides(overrides))


def cache_key(
    workload: str,
    name: str,
    overrides: Optional[Mapping[str, object]],
    runner_config: object,
    generator_version: int = GENERATOR_VERSION,
) -> Dict[str, object]:
    """Everything a simulation's outcome depends on, as a JSON-able dict.

    The configuration dataclasses are resolved exactly as
    ``Runner.build_predictor`` resolves them, so an edited preset or
    config default changes the key; :data:`MODEL_VERSION` covers kernel
    edits.
    """
    tage_config, design = resolve_configs(name, runner_config.scale, overrides)
    return {
        "workload": workload,
        "config": name,
        "overrides": repr(freeze_overrides(overrides)),
        "tage_config": repr(tage_config),
        "design_config": repr(design),
        "runner_config": {str(k): repr(v) for k, v in asdict(runner_config).items()},
        "generator_version": generator_version,
        "model_version": MODEL_VERSION,
    }


def cache_digest(key: Mapping[str, object]) -> str:
    """Content hash of a :func:`cache_key` payload (the cache filename)."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


# -- observed cell timings ----------------------------------------------------

TIMINGS_FORMAT_VERSION = 1

#: timing-store filename inside a cache directory.  Deliberately not
#: ``*.json`` so :meth:`ResultCache.clear`/``__len__`` (which glob result
#: entries by that pattern) never count or delete it.
TIMINGS_FILENAME = "timings.meta"

#: learned-cost-model coefficient file, persisted beside the timings
#: (same non-``*.json`` convention; see :mod:`repro.core.costmodel`)
COSTMODEL_FILENAME = "costmodel.meta"

#: the key of unqualified timing observations, which bare pre-key entries
#: migrate to; every simulated lane observes under the cost model's
#: ``batched``/``batched+warm`` keys instead
LEGACY_TIMING_KEY = "reference"


class TimingStore:
    """Persisted EMA of observed per-cell wall-clock seconds.

    Feeds the parallel scheduler's cost model
    (:class:`~repro.core.parallel.CostModel`): cells that have run before
    are ordered by how long they actually took, not by a static estimate.
    Lives alongside the result cache (one small JSON file, atomic
    writes); timings are advisory -- a missing, stale, or corrupt file
    only degrades scheduling order, never results -- so any load error is
    treated as an empty store.  ``path=None`` keeps timings in memory
    only (still useful within one invocation).  Saving *merges* with the
    on-disk state instead of overwriting it, so two invocations sharing a
    cache directory both contribute their observations; orphaned writer
    temps from crashed processes are swept at construction.

    Besides the keyed EMA map, the store accumulates a *sample
    corpus* -- per ``(workload, config, key, trace length)`` EMA
    seconds with an observation count -- which is what the learned cost
    model (:mod:`repro.core.costmodel`) fits on.  The corpus rides in the
    same file under a ``samples`` key that pre-corpus readers ignore, so
    the format version is unchanged; merge-on-save semantics match the
    EMA map (adopt foreign keys, blend contended ones).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, alpha: float = 0.5) -> None:
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        self._data: Dict[str, float] = {}
        self._samples: Dict[str, Dict[str, float]] = {}
        if self.path is not None:
            self._sweep_temps()
            self._data, self._samples = self._read_disk()
        #: snapshot of the on-disk state this store last loaded or wrote,
        #: so save() can tell which keys another process updated since
        self._synced: Dict[str, float] = dict(self._data)
        self._synced_samples: Dict[str, float] = {
            key: entry["s"] for key, entry in self._samples.items()
        }
        obs_registry().register_collector("timing_store", self.stats)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._data), "samples": len(self._samples)}

    def _read_disk(self) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """Current on-disk (timings, samples) (empty on any error).

        Keys written before the key dimension existed
        (``workload/config``) are migrated in place to
        ``workload/config@reference`` (:data:`LEGACY_TIMING_KEY`) --
        leaving them unmigrated would orphan the history the scheduler
        ordered by.  Files written before the sample corpus existed
        simply have no ``samples`` key.
        """
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("version") != TIMINGS_FORMAT_VERSION:
                return {}, {}
            data = {str(k): float(v) for k, v in dict(payload.get("seconds", {})).items()}
            samples = {
                str(k): {"s": float(v["s"]), "n": float(v["n"])}
                for k, v in dict(payload.get("samples", {})).items()
            }
            return (
                {(k if "@" in k else f"{k}@{LEGACY_TIMING_KEY}"): v for k, v in data.items()},
                samples,
            )
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError):
            return {}, {}

    def _sweep_temps(self) -> int:
        """Remove writer temps (``<name>.tmp.<pid>``) of dead processes."""
        removed = 0
        if self.path is None or not self.path.parent.is_dir():
            return removed
        for tmp in self.path.parent.glob(f"{self.path.name}.tmp.*"):
            if stale_temp(tmp, tmp.name.rsplit(".", 1)[-1]):
                try:
                    tmp.unlink()
                    removed += 1
                except FileNotFoundError:  # pragma: no cover - concurrent sweep
                    pass
        return removed

    @staticmethod
    def key(workload: str, name: str, backend: str = LEGACY_TIMING_KEY) -> str:
        """Timing key: how the cell ran is part of the identity.

        A lane replaying an adopted base stream (``batched+warm``) costs
        systematically less than one whose group recorded it
        (``batched``); one EMA over both would corrupt the
        longest-expected-first schedule for whichever runs next.
        """
        return f"{workload}/{name}@{backend}"

    @staticmethod
    def sample_key(workload: str, name: str, backend: str, branches: int) -> str:
        """Corpus key: the trace length joins the identity (cost scales with it)."""
        return f"{workload}/{name}@{backend}#{int(branches)}"

    def get(self, workload: str, name: str, backend: str = LEGACY_TIMING_KEY) -> Optional[float]:
        return self._data.get(self.key(workload, name, backend))

    def observe(
        self,
        workload: str,
        name: str,
        seconds: float,
        backend: str = LEGACY_TIMING_KEY,
        branches: Optional[int] = None,
    ) -> None:
        """Blend one observation into the EMA (first observation wins whole).

        With ``branches`` the observation also lands in the sample corpus
        under its trace length, growing the learned cost model's training
        set (callers that know the run length should always pass it).
        """
        key = self.key(workload, name, backend)
        previous = self._data.get(key)
        if previous is None:
            self._data[key] = float(seconds)
        else:
            self._data[key] = self.alpha * float(seconds) + (1.0 - self.alpha) * previous
        if branches is not None:
            skey = self.sample_key(workload, name, backend, branches)
            entry = self._samples.get(skey)
            if entry is None:
                self._samples[skey] = {"s": float(seconds), "n": 1.0}
            else:
                entry["s"] = self.alpha * float(seconds) + (1.0 - self.alpha) * entry["s"]
                entry["n"] += 1.0

    def samples(self) -> List[Tuple[str, str, str, int, float, int]]:
        """The fit corpus: ``(workload, config, backend, branches, seconds,
        count)`` rows in deterministic (sorted-key) order."""
        rows = []
        for key in sorted(self._samples):
            cell, _, branches_text = key.rpartition("#")
            ident, _, backend = cell.rpartition("@")
            workload, _, name = ident.partition("/")
            entry = self._samples[key]
            rows.append(
                (workload, name, backend, int(branches_text), entry["s"], int(entry["n"]))
            )
        return rows

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def save(self) -> None:
        """Merge with the on-disk state, then persist atomically.

        A plain overwrite is last-writer-wins: two concurrent invocations
        sharing a cache dir would silently drop each other's timings.
        Instead, keys another process added since our load are adopted,
        and keys both sides updated are EMA-blended -- the merge is
        heuristic (timings are advisory) but loses nobody's data.  The
        sample corpus merges the same way (blend contended seconds, keep
        the larger observation count).  No-op for in-memory stores.
        """
        if self.path is None:
            return
        disk, disk_samples = self._read_disk()
        for key, disk_value in disk.items():
            mine = self._data.get(key)
            if mine is None:
                self._data[key] = disk_value
            elif disk_value != self._synced.get(key):
                self._data[key] = self.alpha * mine + (1.0 - self.alpha) * disk_value
        for key, disk_entry in disk_samples.items():
            mine_entry = self._samples.get(key)
            if mine_entry is None:
                self._samples[key] = dict(disk_entry)
            elif disk_entry["s"] != self._synced_samples.get(key):
                mine_entry["s"] = self.alpha * mine_entry["s"] + (1.0 - self.alpha) * disk_entry["s"]
                mine_entry["n"] = max(mine_entry["n"], disk_entry["n"])
        payload = {
            "version": TIMINGS_FORMAT_VERSION,
            "seconds": self._data,
            "samples": self._samples,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, self.path)
        self._synced = dict(self._data)
        self._synced_samples = {key: entry["s"] for key, entry in self._samples.items()}

    def __len__(self) -> int:
        return len(self._data)


# -- the persistent cache -----------------------------------------------------


class ResultCache:
    """Content-addressed on-disk store of :class:`SimulationResult` entries.

    One JSON file per entry, named by the :func:`cache_digest` of its
    key; each file also records the human-readable key for debugging.
    Writes go through a per-process temp file and ``os.replace`` so
    concurrent writers (a parallel ``run_matrix`` merging worker results,
    or two CLI invocations sharing ``--cache-dir``) can never corrupt an
    entry.  ``hits``/``misses``/``writes`` counters let callers (and
    tests) verify that a warm cache performs zero simulations.

    The store is *self-healing*: an entry that fails to parse or
    validate (undecodable JSON, or a well-formed file with the right
    version but a missing/malformed ``result`` field -- the signature of
    an interrupted writer on a pre-atomic layout) is quarantined by
    renaming it ``*.json.corrupt`` and reported as a miss, so the cell
    re-simulates and overwrites instead of crashing the run.  Orphaned
    writer temps (``*.json.tmp.<pid>`` of dead processes) are swept at
    construction and by :meth:`clear`.  ``quarantined`` / ``temps_swept``
    counters surface both in :meth:`stats`.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.temps_swept = 0
        self._sweep_temps()
        # per-instance counters stay plain ints (the attribute API above
        # is public); the registry sees them through a weak pull-collector
        obs_registry().register_collector("result_cache", self.stats)

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def _sweep_temps(self) -> int:
        """Remove writer temps (``*.json.tmp.<pid>``) of dead processes."""
        removed = 0
        for tmp in self.cache_dir.glob("*.json.tmp.*"):
            if stale_temp(tmp, tmp.name.rsplit(".", 1)[-1]):
                try:
                    tmp.unlink()
                    removed += 1
                except FileNotFoundError:  # pragma: no cover - concurrent sweep
                    pass
        self.temps_swept += removed
        return removed

    def _quarantine(self, path: Path) -> None:
        """Rename a damaged entry out of the way (``<name>.corrupt``)."""
        try:
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
        except OSError:  # pragma: no cover - raced unlink/rename
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1

    def get(self, digest: str) -> Optional[SimulationResult]:
        """Return the cached result for ``digest``, or ``None`` on a miss.

        Damaged entries (undecodable, or schema-invalid under the current
        version) are quarantined and treated as misses rather than
        raising, so one bad file degrades a single cell to
        re-simulation instead of aborting the campaign.
        """
        path = self._path(digest)
        try:
            raw = path.read_text()
        except (FileNotFoundError, OSError):
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload.get("version") != CACHE_FORMAT_VERSION:
                # foreign layout version: a plain miss, not damage --
                # another tool revision may still be able to read it
                self.misses += 1
                return None
            result = result_from_dict(payload["result"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, digest: str, key: Mapping[str, object], result: SimulationResult) -> None:
        """Store ``result`` under ``digest`` (atomic, last writer wins)."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": dict(key),
            "result": result_to_dict(result),
        }
        injector = active_injector()
        if injector is not None and injector.should_corrupt(
            str(key.get("workload", "")), str(key.get("config", ""))
        ):
            # fault injection: drop the result field, keeping the entry
            # well-formed JSON of the right version -- the exact shape
            # the quarantine path in get() must recover from
            del payload["result"]
        path = self._path(digest)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
        self.writes += 1

    def invalidate(self, digest: str) -> bool:
        """Drop one entry; returns whether it existed."""
        try:
            self._path(digest).unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Drop every entry; returns the number removed.

        Also sweeps quarantined (``*.json.corrupt``) files and orphaned
        writer temps -- ``clear`` means "leave the directory pristine",
        not "remove only what I can still parse".
        """
        removed = 0
        for path in self.cache_dir.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                pass
        for path in self.cache_dir.glob("*.json.corrupt"):
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                pass
        self._sweep_temps()
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "temps_swept": self.temps_swept,
        }

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
from repro.common.fsio import stale_temp
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

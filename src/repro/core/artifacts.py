"""Persistent, content-addressed store of trace artifacts.

Building a :class:`~repro.core.runner.WorkloadBundle` from scratch --
trace generation, :class:`~repro.tage.TraceTensors`, context streams --
costs a substantial fraction of a simulation, and every worker process of
a parallel matrix used to repeat it privately.  This module persists the
whole bundle on disk, keyed by a content hash of everything the trace
depends on (the full :class:`~repro.traces.workloads.WorkloadSpec`, the
effective seed, the requested length, and ``GENERATOR_VERSION``), so:

* a warm run's ``Runner.bundle()`` becomes an ``mmap`` + wrap instead of
  a rebuild (zero trace generations -- a counter asserts this), and
* N worker processes on one machine share page-cache pages of the same
  arrays instead of holding N private copies.

Layout: one directory per bundle digest holding the five trace columns
as raw ``.npy`` arrays plus the context-stream inputs; *derived* streams
(folds, built index/tag/bimodal streams, per-depth context hashes) are
written back lazily through :class:`BundleArtifacts` as predictors first
request them, and memory-mapped on every later load.  All files are
written via temp-file + ``os.replace`` (concurrent writers race benignly:
content is deterministic, last writer wins whole files); ``meta.json`` is
written last and marks a bundle complete, so readers never observe a
partial bundle.  Bumping ``GENERATOR_VERSION`` changes every digest,
invalidating the store with no manual cleanup.

The store also persists **shared-base streams**: the packed ``uint64``
recording a :class:`~repro.tage.batched_state.SharedBase` produces over a
bundle.  A stream is a pure function of (bundle, canonical base
``TageConfig``, packed-word layout), so it lives *inside* the bundle's
digest directory as ``base_<digest16>.npy`` where the digest covers the
base config and ``BASE_STREAM_VERSION`` -- bundle invalidation implies
base invalidation, and a layout bump invalidates every stored stream.
Streams load ``mmap_mode="r"``; torn files are quarantined (renamed
``*.corrupt``) so the next miss re-records cleanly.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.fsio import stale_temp
from repro.core.results_io import cache_digest
from repro.obs.metrics import registry as obs_registry
from repro.llbp.rcr import ContextStreams
from repro.tage.batched_state import BASE_STREAM_DTYPE, BASE_STREAM_VERSION
from repro.tage.streams import TraceTensors
from repro.traces.generator import GENERATOR_VERSION
from repro.traces.record import COLUMN_DTYPES, Trace
from repro.traces.workloads import workload_spec

#: version of the on-disk artifact layout; part of every bundle digest
ARTIFACT_FORMAT_VERSION = 1

_META_NAME = "meta.json"


def _atomic_save(path: Path, arr: np.ndarray) -> None:
    """Write ``arr`` to ``path`` atomically (unique temp + rename)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp.npy")
    with open(tmp, "wb") as handle:
        np.save(handle, np.ascontiguousarray(arr))
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _stream_file(key: Tuple) -> str:
    """Stable filename for a built-stream key tuple (ints/strs only)."""
    return f"stream_{cache_digest({'stream_key': repr(key)})[:16]}.npy"


class BundleArtifacts:
    """Read/write handle for one bundle's derived-stream files.

    Duck-typed against the ``artifact_cache`` hook of
    :class:`~repro.tage.TraceTensors` and the ``hash_cache`` hook of
    :class:`~repro.llbp.ContextStreams`: loads return memory-mapped
    arrays (or ``None`` on a miss), stores write atomically.
    """

    def __init__(self, store: "ArtifactStore", directory: Path) -> None:
        self.store = store
        self.directory = directory

    def _load(self, name: str) -> Optional[np.ndarray]:
        try:
            arr = np.load(self.directory / name, mmap_mode="r")
        except (FileNotFoundError, ValueError, OSError):
            return None
        self.store.derived_loads += 1
        return arr

    def _store(self, name: str, arr: np.ndarray) -> None:
        _atomic_save(self.directory / name, arr)
        self.store.derived_writes += 1

    def load_fold(self, length: int, width: int) -> Optional[np.ndarray]:
        return self._load(f"fold_{length}_{width}.npy")

    def store_fold(self, length: int, width: int, fold: np.ndarray) -> None:
        self._store(f"fold_{length}_{width}.npy", fold)

    def load_stream(self, key: Tuple) -> Optional[np.ndarray]:
        return self._load(_stream_file(key))

    def store_stream(self, key: Tuple, matrix: np.ndarray) -> None:
        self._store(_stream_file(key), matrix)

    def load_context_hashes(self, depth: int) -> Optional[List[int]]:
        arr = self._load(f"ctxhash_{depth}.npy")
        return None if arr is None else arr.tolist()

    def store_context_hashes(self, depth: int, hashes: Sequence[int]) -> None:
        self._store(f"ctxhash_{depth}.npy", np.asarray(hashes, dtype=np.uint64))


class ArtifactStore:
    """Content-addressed on-disk cache of workload bundles.

    ``config`` arguments are duck-typed against
    :class:`~repro.core.runner.RunnerConfig`: only ``num_branches`` and
    ``seed`` participate in trace identity (``scale`` and warmup affect
    simulation, not the trace, and are covered by the *result* cache).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.bundle_loads = 0
        self.bundle_writes = 0
        self.derived_loads = 0
        self.derived_writes = 0
        self.base_loads = 0
        self.base_writes = 0
        self.quarantined = 0
        self.temps_swept = 0
        self._sweep_temps()
        # plain-int attributes stay the public API; the metrics registry
        # observes them through a weakly-held pull-collector
        obs_registry().register_collector("artifact_store", self.stats)

    def _sweep_temps(self) -> int:
        """Remove atomic-writer temps orphaned by dead processes.

        Temp names embed the writer's pid (``.{name}.{pid}.{uuid}.tmp``
        or ``....tmp.npy``); temps of live pids are left alone -- their
        writer may still rename them into place.
        """
        removed = 0
        for pattern in (".*.tmp", ".*.tmp.npy"):
            for tmp in self.root.rglob(pattern):
                parts = tmp.name.split(".")
                if parts[-1] == "npy":
                    parts = parts[:-1]
                # [..., pid, uuid, "tmp"] after stripping a trailing npy
                pid_text = parts[-3] if len(parts) >= 3 else ""
                if stale_temp(tmp, pid_text):
                    try:
                        tmp.unlink()
                        removed += 1
                    except FileNotFoundError:  # pragma: no cover - raced
                        pass
        self.temps_swept += removed
        return removed

    # -- identity ---------------------------------------------------------

    def bundle_key(
        self, workload: str, config: object, generator_version: Optional[int] = None
    ) -> Dict[str, object]:
        """Everything the trace (and its derived streams) depends on."""
        if generator_version is None:
            generator_version = GENERATOR_VERSION
        spec = workload_spec(workload)
        seed = getattr(config, "seed", None)
        if seed is not None:
            spec = spec.with_seed(seed)
        return {
            "format": ARTIFACT_FORMAT_VERSION,
            "spec": {str(k): repr(v) for k, v in sorted(asdict(spec).items())},
            "num_branches": int(config.num_branches),
            "generator_version": int(generator_version),
        }

    def bundle_digest(self, workload: str, config: object) -> str:
        return cache_digest(self.bundle_key(workload, config))

    def bundle_dir(self, digest: str) -> Path:
        return self.root / digest

    def _quarantine_meta(self, meta_path: Path) -> None:
        """Rename a damaged ``meta.json`` out of the way.

        Without its meta the bundle reads as absent, so the next
        :meth:`load_bundle` miss triggers regeneration -- which rewrites
        every column and a fresh meta over the old directory.
        """
        try:
            os.replace(meta_path, meta_path.with_name(f"{_META_NAME}.corrupt"))
        except OSError:  # pragma: no cover - raced unlink/rename
            return
        self.quarantined += 1

    def has_bundle(self, workload: str, config: object) -> bool:
        return (self.bundle_dir(self.bundle_digest(workload, config)) / _META_NAME).is_file()

    # -- load / save ------------------------------------------------------

    def load_bundle(self, workload: str, config: object):
        """Materialise a :class:`WorkloadBundle` from the store, or ``None``.

        Trace columns load with ``mmap_mode="r"`` -- the bundle wraps the
        mapped arrays directly, and the attached :class:`BundleArtifacts`
        handle lazily maps (or writes back) derived streams.
        """
        from repro.core.runner import WorkloadBundle

        key = self.bundle_key(workload, config)
        directory = self.bundle_dir(cache_digest(key))
        meta_path = directory / _META_NAME
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            self._quarantine_meta(meta_path)
            return None
        try:
            if meta.get("key") != json.loads(json.dumps(key)):
                return None  # digest collision or stale layout: rebuild
            trace = Trace(name=meta["name"], seed=meta["seed"], meta=meta["trace_meta"])
        except (AttributeError, KeyError, TypeError, ValueError):
            # schema-invalid meta (e.g. a torn write on a non-atomic
            # filesystem): quarantine so the bundle regenerates cleanly
            self._quarantine_meta(meta_path)
            return None
        try:
            for column in COLUMN_DTYPES:
                setattr(trace, column, np.load(directory / f"{column}.npy", mmap_mode="r"))
            ctx_values = np.load(directory / "ctx_values.npy", mmap_mode="r")
            ctx_prefix = np.load(directory / "ctx_prefix.npy", mmap_mode="r")
        except (FileNotFoundError, ValueError, OSError):
            return None
        handle = BundleArtifacts(self, directory)
        tensors = TraceTensors(trace, artifact_cache=handle)
        contexts = ContextStreams(
            tensors, ub_prefix=ctx_prefix, values=ctx_values, hash_cache=handle
        )
        self.bundle_loads += 1
        return WorkloadBundle(trace=trace, tensors=tensors, contexts=contexts)

    def save_bundle(self, workload: str, config: object, bundle) -> BundleArtifacts:
        """Persist a freshly built bundle and attach write-back hooks.

        Column and context arrays are written first, ``meta.json`` last
        (its presence marks the bundle complete).  The returned handle is
        also attached to ``bundle.tensors``/``bundle.contexts`` so any
        derived stream computed later in this process is persisted too;
        derived data already computed is flushed immediately.
        """
        key = self.bundle_key(workload, config)
        directory = self.bundle_dir(cache_digest(key))
        directory.mkdir(parents=True, exist_ok=True)
        trace = bundle.trace
        for column, dtype in COLUMN_DTYPES.items():
            _atomic_save(directory / f"{column}.npy", np.asarray(getattr(trace, column), dtype=dtype))
        contexts = bundle.contexts
        _atomic_save(directory / "ctx_values.npy", np.asarray(contexts._values, dtype=np.uint64))
        _atomic_save(directory / "ctx_prefix.npy", np.asarray(contexts.ub_prefix, dtype=np.int64))
        meta = {
            "key": key,
            "name": trace.name,
            "seed": trace.seed,
            "trace_meta": trace.meta,
            "num_records": len(trace),
        }
        _atomic_write_text(directory / _META_NAME, json.dumps(meta, indent=2, sort_keys=True))
        self.bundle_writes += 1

        handle = BundleArtifacts(self, directory)
        tensors = bundle.tensors
        tensors.artifact_cache = handle
        contexts.hash_cache = handle
        from repro.tage.streams import streams_to_matrix

        for (length, width), fold in tensors._folds.items():
            handle.store_fold(length, width, fold)
        for stream_key, rows in tensors._streams.items():
            handle.store_stream(
                stream_key, streams_to_matrix(rows if isinstance(rows, list) else [rows])
            )
        for depth, hashes in contexts._hashes.items():
            handle.store_context_hashes(depth, hashes)
        return handle

    # -- base streams ------------------------------------------------------

    def base_stream_name(self, base_config: object) -> str:
        """Stable filename for a base stream inside a bundle directory.

        The digest covers the canonical base config and
        ``BASE_STREAM_VERSION`` -- bumping the packed-word layout
        invalidates every persisted stream with no manual cleanup.  The
        bundle digest (the directory) covers everything trace-side.
        """
        digest = cache_digest(
            {
                "base_config": {str(k): repr(v) for k, v in sorted(asdict(base_config).items())},
                "base_stream_version": BASE_STREAM_VERSION,
            }
        )
        return f"base_{digest[:16]}.npy"

    def base_stream_path(self, workload: str, config: object, base_config: object) -> Path:
        directory = self.bundle_dir(self.bundle_digest(workload, config))
        return directory / self.base_stream_name(base_config)

    def has_base_stream(self, workload: str, config: object, base_config: object) -> bool:
        return self.base_stream_path(workload, config, base_config).is_file()

    def load_base_stream(
        self,
        workload: str,
        config: object,
        base_config: object,
        expected_length: Optional[int] = None,
    ) -> Optional[np.ndarray]:
        """Memory-map a persisted base stream, or ``None`` on a miss.

        Torn or wrong-length files are quarantined (renamed
        ``*.corrupt``) so the caller's miss path re-records and rewrites
        a clean stream over the same name.
        """
        path = self.base_stream_path(workload, config, base_config)
        try:
            packed = np.load(path, mmap_mode="r")
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._quarantine_base(path)
            return None
        if (
            packed.ndim != 1
            or packed.dtype != BASE_STREAM_DTYPE
            or (expected_length is not None and len(packed) != expected_length)
        ):
            self._quarantine_base(path)
            return None
        self.base_loads += 1
        return packed

    def save_base_stream(
        self, workload: str, config: object, base_config: object, packed: np.ndarray
    ) -> Path:
        """Persist a freshly recorded stream (atomic temp + rename)."""
        path = self.base_stream_path(workload, config, base_config)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_save(path, np.asarray(packed, dtype=BASE_STREAM_DTYPE))
        self.base_writes += 1
        return path

    def _quarantine_base(self, path: Path) -> None:
        """Rename a damaged base stream out of the way (miss => re-record)."""
        try:
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
        except OSError:  # pragma: no cover - raced unlink/rename
            return
        self.quarantined += 1

    # -- warming ----------------------------------------------------------

    def warm_bases(
        self, workloads: Iterable[str], config: object, base_configs: Iterable[object]
    ) -> Tuple[int, int]:
        """Pre-record base streams for every (workload, base config) pair.

        Returns ``(built, skipped)`` -- pairs whose stream already exists
        are skipped.  Recording goes through the same :class:`SharedBase`
        pass a group runs, so a later run adopts these streams
        bit-identically.
        """
        from repro.core.runner import Runner
        from repro.tage.batched_state import SharedBase

        base_configs = list(base_configs)
        built = 0
        skipped = 0
        runner = Runner(config, artifacts=self)
        for workload in workloads:
            for base_cfg in base_configs:
                if self.has_base_stream(workload, config, base_cfg):
                    skipped += 1
                    continue
                bundle = runner.bundle(workload)
                shared = SharedBase(base_cfg, bundle.tensors)
                shared.record(bundle.trace, bundle.tensors)
                self.save_base_stream(workload, config, base_cfg, shared.packed_stream())
                built += 1
            runner.release(workload)
        return built, skipped

    def warm(self, workloads: Iterable[str], config: object) -> int:
        """Ensure a bundle exists for every workload; returns #built.

        Building goes through trace generation (the expensive path) once
        per missing workload; existing bundles are left untouched.
        """
        from repro.core.runner import Runner

        built = 0
        runner = Runner(config, artifacts=self)
        for workload in workloads:
            if self.has_bundle(workload, config):
                continue
            runner.bundle(workload)
            runner.release(workload)
            built += 1
        return built

    def clear(self) -> int:
        """Drop every bundle; returns the number removed.

        Directories whose meta was quarantined count too (they are
        damaged bundles, not foreign data), and stale writer temps are
        swept.
        """
        import shutil

        removed = 0
        for directory in self.root.iterdir():
            if not directory.is_dir():
                continue
            if (directory / _META_NAME).is_file() or (
                directory / f"{_META_NAME}.corrupt"
            ).is_file():
                shutil.rmtree(directory, ignore_errors=True)
                removed += 1
        self._sweep_temps()
        return removed

    def __len__(self) -> int:
        return sum(1 for d in self.root.iterdir() if (d / _META_NAME).is_file())

    def stats(self) -> Dict[str, int]:
        return {
            "bundle_loads": self.bundle_loads,
            "bundle_writes": self.bundle_writes,
            "derived_loads": self.derived_loads,
            "derived_writes": self.derived_writes,
            "base_loads": self.base_loads,
            "base_writes": self.base_writes,
            "quarantined": self.quarantined,
            "temps_swept": self.temps_swept,
        }

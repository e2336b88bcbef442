"""Tests for the persistent trace-artifact store.

The load-bearing guarantees: a bundle materialised from the store (mmap +
wrap) yields *bit-identical* simulation results to a freshly built one
across workloads and predictor families; warm stores perform zero trace
generations (counter-verified); bumping ``GENERATOR_VERSION`` invalidates
every bundle; and concurrent writers cannot corrupt the store (atomic
renames, ``meta.json`` written last).
"""

import json
import multiprocessing
import os

import pytest

import repro.core.artifacts as artifacts_mod
from repro.core import ArtifactStore, Runner, RunnerConfig

WORKLOADS = ("kafka", "nodeapp", "whiskey")
CONFIGS = ("tsl_64k", "llbp", "llbpx")

SMALL = RunnerConfig(scale=4, num_branches=4000)


@pytest.fixture(scope="module")
def fresh_results():
    runner = Runner(SMALL)
    return {
        (workload, config): runner.run_one(workload, config)
        for workload in WORKLOADS
        for config in CONFIGS
    }


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestBitIdentity:
    def test_warm_bundles_bit_identical_to_fresh(self, store, fresh_results):
        # cold pass populates the store
        cold = Runner(SMALL, artifacts=store)
        for workload in WORKLOADS:
            for config in CONFIGS:
                assert cold.run_one(workload, config) == fresh_results[(workload, config)]
        assert cold.bundle_builds == len(WORKLOADS)
        assert len(store) == len(WORKLOADS)

        # warm pass: fresh runner + store handle, zero builds
        warm = Runner(SMALL, artifacts=ArtifactStore(store.root))
        for workload in WORKLOADS:
            for config in CONFIGS:
                assert warm.run_one(workload, config) == fresh_results[(workload, config)]
        assert warm.bundle_builds == 0
        assert warm.bundle_loads == len(WORKLOADS)

    def test_derived_streams_are_persisted_and_reused(self, store):
        cold = Runner(SMALL, artifacts=store)
        cold.run_one("kafka", "llbp")
        assert store.derived_writes > 0

        reopened = ArtifactStore(store.root)
        warm = Runner(SMALL, artifacts=reopened)
        warm.run_one("kafka", "llbp")
        assert reopened.derived_loads > 0
        assert reopened.derived_writes == 0  # nothing recomputed

    def test_mmap_load_shares_trace_identity(self, store, fresh_results):
        Runner(SMALL, artifacts=store).bundle("kafka")
        bundle = ArtifactStore(store.root).load_bundle("kafka", SMALL)
        fresh = Runner(SMALL).bundle("kafka")
        assert bundle.trace == fresh.trace
        assert bundle.contexts.ub_prefix == fresh.contexts.ub_prefix
        assert bundle.contexts._values == fresh.contexts._values


class TestWarming:
    def test_warm_builds_missing_only(self, store):
        assert store.warm(WORKLOADS, SMALL) == len(WORKLOADS)
        assert store.warm(WORKLOADS, SMALL) == 0

    def test_warmed_runner_performs_zero_builds(self, store, fresh_results):
        store.warm(WORKLOADS, SMALL)
        runner = Runner(SMALL, artifacts=ArtifactStore(store.root))
        for workload in WORKLOADS:
            assert runner.run_one(workload, "tsl_64k") == fresh_results[(workload, "tsl_64k")]
        assert runner.bundle_builds == 0


class TestInvalidation:
    def test_generator_version_bump_changes_digest(self, store, monkeypatch):
        before = store.bundle_digest("kafka", SMALL)
        monkeypatch.setattr(artifacts_mod, "GENERATOR_VERSION", artifacts_mod.GENERATOR_VERSION + 1)
        assert store.bundle_digest("kafka", SMALL) != before

    def test_generator_version_bump_misses_existing_bundles(self, store, monkeypatch):
        store.warm(["kafka"], SMALL)
        assert store.has_bundle("kafka", SMALL)
        monkeypatch.setattr(artifacts_mod, "GENERATOR_VERSION", artifacts_mod.GENERATOR_VERSION + 1)
        assert not store.has_bundle("kafka", SMALL)
        assert store.load_bundle("kafka", SMALL) is None

    def test_key_mismatch_in_meta_is_rejected(self, store):
        store.warm(["kafka"], SMALL)
        directory = store.bundle_dir(store.bundle_digest("kafka", SMALL))
        meta = json.loads((directory / "meta.json").read_text())
        meta["key"]["num_branches"] = 999  # simulate digest collision / stale layout
        (directory / "meta.json").write_text(json.dumps(meta))
        assert store.load_bundle("kafka", SMALL) is None

    def test_incomplete_bundle_is_invisible(self, store):
        store.warm(["kafka"], SMALL)
        directory = store.bundle_dir(store.bundle_digest("kafka", SMALL))
        (directory / "meta.json").unlink()  # writer died before the completeness marker
        assert not store.has_bundle("kafka", SMALL)
        assert store.load_bundle("kafka", SMALL) is None
        assert len(store) == 0

    def test_seed_and_length_participate_in_identity(self, store):
        base = store.bundle_digest("kafka", SMALL)
        assert store.bundle_digest("kafka", RunnerConfig(scale=4, num_branches=5000)) != base
        assert store.bundle_digest("kafka", RunnerConfig(scale=4, num_branches=4000, seed=7)) != base
        # scale affects simulation, not the trace: same bundle
        assert store.bundle_digest("kafka", RunnerConfig(scale=8, num_branches=4000)) == base


def _race_writer(root: str) -> None:
    store = ArtifactStore(root)
    runner = Runner(SMALL, artifacts=store)
    runner.bundle("kafka")
    runner.run_one("kafka", "llbp")  # also races on derived-stream files


class TestConcurrency:
    def test_concurrent_writers_do_not_corrupt(self, store, fresh_results):
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_race_writer, args=(str(store.root),)) for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        # no stray temp files, and the surviving bundle is fully usable
        assert not list(store.root.rglob("*.tmp*"))
        runner = Runner(SMALL, artifacts=ArtifactStore(store.root))
        assert runner.run_one("kafka", "llbp") == fresh_results[("kafka", "llbp")]
        assert runner.bundle_builds == 0


class TestHousekeeping:
    def test_clear_and_len(self, store):
        store.warm(["kafka", "nodeapp"], SMALL)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_stats_counters(self, store):
        store.warm(["kafka"], SMALL)
        stats = store.stats()
        assert stats["bundle_writes"] == 1
        reopened = ArtifactStore(store.root)
        reopened.load_bundle("kafka", SMALL)
        assert reopened.stats()["bundle_loads"] == 1


class TestArtifactStoreSelfHealing:
    def test_undecodable_meta_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.bundle_dir(store.bundle_digest("kafka", SMALL))
        directory.mkdir()
        (directory / "meta.json").write_text("{ torn write")
        assert store.load_bundle("kafka", SMALL) is None
        assert store.quarantined == 1
        assert (directory / "meta.json.corrupt").exists()

    def test_schema_invalid_meta_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.bundle_dir(store.bundle_digest("kafka", SMALL))
        directory.mkdir()
        # right key, but no trace fields: a torn write on the value side
        meta = {"key": store.bundle_key("kafka", SMALL)}
        (directory / "meta.json").write_text(json.dumps(meta))
        assert store.load_bundle("kafka", SMALL) is None
        assert store.quarantined == 1

    def test_quarantined_bundle_regenerates(self, tmp_path):
        expected = Runner(SMALL).run_one("kafka", "tsl_16k")
        store = ArtifactStore(tmp_path)
        directory = store.bundle_dir(store.bundle_digest("kafka", SMALL))
        directory.mkdir()
        (directory / "meta.json").write_text("not even json")
        runner = Runner(SMALL, artifacts=store)
        assert runner.run_one("kafka", "tsl_16k") == expected
        assert store.quarantined == 1
        assert store.bundle_writes == 1  # regenerated over the damaged dir

    def test_clear_removes_quarantined_bundle_dirs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = tmp_path / "feedbeef"
        directory.mkdir()
        (directory / "meta.json.corrupt").write_text("damaged")
        store.clear()
        assert not directory.exists()

    def test_stale_artifact_temps_swept(self, tmp_path):
        (tmp_path / ".ctx_values.npy.999999999.abcd1234.tmp.npy").write_text("x")
        (tmp_path / ".meta.json.999999999.abcd1234.tmp").write_text("x")
        store = ArtifactStore(tmp_path)
        assert store.temps_swept == 2
        assert list(tmp_path.iterdir()) == []

    def test_live_artifact_temp_kept(self, tmp_path):
        live = tmp_path / f".meta.json.{os.getpid()}.abcd1234.tmp"
        live.write_text("in flight")
        assert ArtifactStore(tmp_path).temps_swept == 0
        assert live.exists()

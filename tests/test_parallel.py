"""Tests for the process-parallel experiment execution layer.

The load-bearing guarantee: ``run_matrix(jobs=N)`` is *bit-identical* to
the serial path -- every field of every ``SimulationResult``, including
predictor stats and extra metrics -- because trace generation and the
predictors are deterministic functions of the pickled ``RunnerConfig``.

Crash safety is resuming, not retrying: a run whose worker dies keeps
every finished result in the cache, a rerun simulates only the missing
cells, and no pool worker outlives a failed or abandoned run.
"""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    ArtifactStore,
    CoopScheduler,
    HostLedger,
    ResultCache,
    Runner,
    RunnerConfig,
    RunReport,
    TimingStore,
)
from repro.core.parallel import CostModel, config_weight, run_cells_parallel, simulate_task
from repro.obs.metrics import registry as obs_registry
from tests.conftest import DoomedTaskError, wait_for_no_children

WORKLOADS = ("kafka", "nodeapp")
CONFIGS = ("tsl_16k", "tsl_64k", "llbp")

SMALL = RunnerConfig(scale=4, num_branches=4000)


@pytest.fixture(scope="module")
def serial_matrix():
    runner = Runner(SMALL)
    return runner.run_matrix(WORKLOADS, CONFIGS)


class TestParallelEqualsSerial:
    def test_two_jobs_bit_identical(self, serial_matrix):
        runner = Runner(SMALL)
        parallel = runner.run_matrix(WORKLOADS, CONFIGS, jobs=2)
        assert parallel == serial_matrix  # full dataclass equality: counts, stats, extra

    def test_more_jobs_than_workloads(self, serial_matrix):
        runner = Runner(SMALL)
        parallel = runner.run_matrix(WORKLOADS, CONFIGS, jobs=8)
        assert parallel == serial_matrix

    def test_jobs_one_uses_serial_path(self, serial_matrix):
        runner = Runner(SMALL)
        assert runner.run_matrix(WORKLOADS, CONFIGS, jobs=1) == serial_matrix

    def test_parallel_results_are_memoised(self):
        runner = Runner(SMALL)
        runner.run_matrix(WORKLOADS, CONFIGS, jobs=2)
        first_sims = runner.sim_count
        runner.run_matrix(WORKLOADS, CONFIGS, jobs=2)
        assert runner.sim_count == first_sims  # second call is pure memo hits


class TestRunCells:
    def test_cells_with_overrides_match_run_one(self):
        cells = [
            ("kafka", "llbp", {"num_contexts": 1024}),
            ("nodeapp", "tsl_16k", {}),
            ("kafka", "tsl_16k", {}),
        ]
        serial = Runner(SMALL)
        expected = [serial.run_one(w, n, **o) for w, n, o in cells]
        parallel = Runner(SMALL)
        assert parallel.run_cells(cells, jobs=2) == expected

    def test_results_in_cell_order(self):
        cells = [(w, c, {}) for c in CONFIGS for w in WORKLOADS]  # config-major input
        runner = Runner(SMALL)
        results = runner.run_cells(cells, jobs=2)
        for (workload, name, _), result in zip(cells, results):
            assert result.workload == workload
            assert result.predictor == name

    def test_progress_fires_once_per_cell(self):
        runner = Runner(SMALL)
        seen = []
        runner.run_matrix(
            WORKLOADS, CONFIGS, jobs=2, progress=lambda w, c, r: seen.append((w, c))
        )
        assert sorted(seen) == sorted((w, c) for w in WORKLOADS for c in CONFIGS)

    def test_progress_fires_for_cached_cells(self):
        runner = Runner(SMALL)
        runner.run_matrix(WORKLOADS, CONFIGS, jobs=2)
        seen = []
        runner.run_matrix(
            WORKLOADS, CONFIGS, jobs=2, progress=lambda w, c, r: seen.append((w, c))
        )
        assert len(seen) == len(WORKLOADS) * len(CONFIGS)


class TestCellGranularScheduling:
    def test_duplicate_cells_simulate_once(self):
        cells = [("kafka", "tsl_16k", {})] * 3 + [("nodeapp", "tsl_16k", {})]
        runner = Runner(SMALL)
        results = runner.run_cells(cells, jobs=2)
        assert runner.sim_count == 2  # unique cells only
        assert results[0] == results[1] == results[2]

    def test_simulate_task_matches_runner(self):
        oracle = Runner(SMALL)
        ungrouped = [("kafka", "llbpx_optw", {})]
        two_lanes = [("kafka", "tsl_64k", {}), ("kafka", "llbp", {})]
        for cells in (ungrouped, two_lanes):
            records = simulate_task(SMALL, cells).records
            assert sorted(name for (_, name, _), _, _, _ in records) == sorted(
                name for _, name, _ in cells
            )
            for (workload, name, overrides), result, seconds, _ in records:
                assert result == oracle.run_one(workload, name, **overrides)
                assert seconds > 0

    def test_run_cells_parallel_with_artifact_store(self, tmp_path):
        cells = [(w, c, {}) for w in WORKLOADS for c in ("tsl_16k", "llbp")]
        expected = {
            (w, c): Runner(SMALL).run_one(w, c) for w, c, _ in cells
        }
        got = dict(
            ((w, c), r)
            for (w, c, _), r in run_cells_parallel(
                SMALL, cells, jobs=2, artifact_dir=str(tmp_path)
            )
        )
        assert got == expected
        # workers populated the shared store
        assert len(ArtifactStore(tmp_path)) == len(WORKLOADS)

    def test_parallel_path_uses_artifact_store_of_runner(self, tmp_path):
        store = ArtifactStore(tmp_path)
        runner = Runner(SMALL, artifacts=store)
        runner.run_matrix(WORKLOADS, ("tsl_16k",), jobs=2)
        assert len(store) == len(WORKLOADS)

    def test_timings_persist_next_to_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(SMALL, cache=cache)
        runner.run_matrix(WORKLOADS, ("tsl_16k",), jobs=2)
        timings = TimingStore(tmp_path / "timings.meta")
        assert timings.get("kafka", "tsl_16k", backend="batched") is not None
        # the timing file is invisible to the result cache's entry count
        assert len(cache) == len(WORKLOADS)


class TestCostModel:
    def test_config_weight_prefix_order(self):
        assert config_weight("llbpx_optw") > config_weight("llbpx")
        assert config_weight("llbpx") > config_weight("llbp")
        assert config_weight("llbp") > config_weight("tsl_64k") == 1.0

    def test_static_estimate_scales_with_length_and_weight(self):
        model = CostModel()
        assert model.estimate("kafka", "llbpx", 8000) > model.estimate("kafka", "llbp", 8000)
        assert model.estimate("kafka", "llbp", 16000) > model.estimate("kafka", "llbp", 8000)

    def test_observed_timing_overrides_static(self):
        timings = TimingStore()
        timings.observe("kafka", "tsl_16k", 123.0)
        model = CostModel(timings)
        assert model.estimate("kafka", "tsl_16k", 8000) == 123.0
        assert model.estimate("nodeapp", "tsl_16k", 8000) < 1.0  # static fallback


class TestTimingStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "timings.meta"
        store = TimingStore(path)
        store.observe("kafka", "llbp", 2.0)
        store.save()
        reloaded = TimingStore(path)
        assert reloaded.get("kafka", "llbp") == 2.0

    def test_ema_blends_observations(self):
        store = TimingStore(alpha=0.5)
        store.observe("w", "c", 2.0)
        store.observe("w", "c", 4.0)
        assert store.get("w", "c") == pytest.approx(3.0)

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "timings.meta"
        path.write_text("not json {")
        store = TimingStore(path)
        assert len(store) == 0
        store.observe("w", "c", 1.0)
        store.save()
        assert json.loads(path.read_text())["seconds"] == {"w/c@reference": 1.0}

    def test_in_memory_save_is_noop(self):
        TimingStore().save()  # must not raise

    def test_concurrent_saves_blend_instead_of_clobbering(self, tmp_path):
        path = tmp_path / "timings.meta"
        a = TimingStore(path)
        b = TimingStore(path)  # loaded before a saved: knows nothing of a
        a.observe("kafka", "llbp", 2.0)
        a.save()
        b.observe("kafka", "llbp", 4.0)
        b.save()
        assert TimingStore(path).get("kafka", "llbp") == pytest.approx(3.0)

    def test_disk_only_keys_adopted_on_save(self, tmp_path):
        path = tmp_path / "timings.meta"
        a = TimingStore(path)
        b = TimingStore(path)
        a.observe("kafka", "llbp", 2.0)
        a.save()
        b.observe("nodeapp", "tsl_64k", 1.0)
        b.save()
        merged = TimingStore(path)
        assert merged.get("kafka", "llbp") == pytest.approx(2.0)
        assert merged.get("nodeapp", "tsl_64k") == pytest.approx(1.0)

    def test_unchanged_disk_keys_not_reblended(self, tmp_path):
        path = tmp_path / "timings.meta"
        store = TimingStore(path)
        store.observe("kafka", "llbp", 2.0)
        store.save()
        store.save()  # disk matches the synced snapshot: value must not drift
        assert TimingStore(path).get("kafka", "llbp") == pytest.approx(2.0)

    def test_stale_temp_swept_on_init(self, tmp_path):
        path = tmp_path / "timings.meta"
        stale = tmp_path / "timings.meta.tmp.999999999"
        stale.write_text("partial")
        TimingStore(path)
        assert not stale.exists()

    def test_live_temp_kept(self, tmp_path):
        path = tmp_path / "timings.meta"
        live = tmp_path / f"timings.meta.tmp.{os.getpid()}"
        live.write_text("in flight")
        TimingStore(path)
        assert live.exists()


#: two shared-base groups of two cells each
GROUPS = [(w, c, {}) for w in ("kafka", "nodeapp") for c in ("tsl_64k", "llbp")]


class TestResume:
    def test_rerun_after_worker_death_simulates_only_missing_cells(
        self, tmp_path, doom_task, monkeypatch
    ):
        expected = Runner(SMALL).run_cells(GROUPS)
        cache_dir = tmp_path / "cache"
        # kafka's worker dies once nodeapp's two results are in the cache
        doom_task("die", "kafka", cache_dir, finished=2)
        crashed = Runner(SMALL, cache=ResultCache(cache_dir))
        with pytest.raises(BrokenProcessPool):
            crashed.run_cells(GROUPS, jobs=2)
        assert crashed.sim_count == 2
        totals = crashed.report.totals()
        assert (totals["cells"], totals["simulated"]) == (4, 2)

        probe = Runner(SMALL, cache=ResultCache(cache_dir))
        cached = [probe.lookup_cached(w, c) is not None for w, c, _ in GROUPS]
        assert cached == [False, False, True, True]  # exactly nodeapp's group

        monkeypatch.undo()  # the rerun's workers run the real task
        resumed = Runner(SMALL, cache=ResultCache(cache_dir))
        assert resumed.run_cells(GROUPS, jobs=2) == expected
        assert resumed.sim_count == 2

    def test_join_host_releases_its_claims_when_a_worker_dies(self, tmp_path, doom_task):
        cache_dir = tmp_path / "cache"
        doom_task("die", "kafka", cache_dir, finished=2)
        runner = Runner(SMALL, cache=ResultCache(cache_dir))
        runner.coop = CoopScheduler(HostLedger(tmp_path / "hosts", host_id="solo"))
        with pytest.raises(BrokenProcessPool):
            runner.run_cells(GROUPS, jobs=2)
        # peers can claim the missing cells at once, without waiting out a TTL
        assert list((tmp_path / "hosts").glob("*.claim")) == []
        assert len(ResultCache(cache_dir)) == 2


class TestPoolTeardown:
    def test_worker_death_leaves_no_workers(self, tmp_path, doom_task):
        doom_task("die", "kafka", tmp_path)
        with pytest.raises(BrokenProcessPool):
            Runner(SMALL).run_cells(GROUPS, jobs=2)
        assert wait_for_no_children()

    def test_raising_task_reraises_its_exception(self, tmp_path, doom_task):
        doom_task("raise", "kafka", tmp_path)
        with pytest.raises(DoomedTaskError):
            Runner(SMALL).run_cells(GROUPS, jobs=2)
        assert wait_for_no_children()

    def test_closing_the_iterator_kills_the_pool(self):
        interrupts = obs_registry().counter("parallel.interrupts")
        before = interrupts.value
        report = RunReport()
        cells = [(w, "tsl_16k", {}) for w in ("kafka", "nodeapp", "whiskey", "tomcat")]
        results = run_cells_parallel(SMALL, cells, 2, report=report)
        next(results)
        results.close()  # what a cancelled service job does
        assert interrupts.value == before + 1
        assert report.interrupted
        assert wait_for_no_children()

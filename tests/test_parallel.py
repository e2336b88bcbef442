"""Tests for the process-parallel experiment execution layer.

The load-bearing guarantee: ``run_matrix(jobs=N)`` is *bit-identical* to
the serial path -- every field of every ``SimulationResult``, including
predictor stats and extra metrics -- because trace generation and the
predictors are deterministic functions of the pickled ``RunnerConfig``.

Crash safety is resuming, not retrying: a run whose worker dies keeps
every finished result in the cache, a rerun simulates only the missing
cells, and no pool worker outlives a failed or abandoned run.
"""

import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import ArtifactStore, ResultCache, Runner, RunnerConfig, RunReport
from repro.core.parallel import (
    config_weight,
    effective_jobs,
    plan_tasks,
    run_cells_parallel,
    simulate_task,
)
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


class TestCostModel:
    """The static cost model: config weights order the pool's tasks."""

    def test_config_weight_prefix_order(self):
        assert config_weight("llbpx_optw") > config_weight("llbpx")
        assert config_weight("llbpx") > config_weight("llbp")
        assert config_weight("llbp") > config_weight("tsl_64k") == 1.0

    def test_plan_tasks_heaviest_first_ties_in_workload_order(self):
        cells = [
            ("kafka", "tsl_16k", {}),
            ("nodeapp", "tsl_16k", {}),
            ("whiskey", "tsl_64k", {}),
            ("whiskey", "llbp", {}),
            ("tomcat", "tsl_inf", {}),
            ("delta", "tsl_16k", {}),
        ]
        tasks = plan_tasks(cells, SMALL)
        assert [[name for _, name, _ in task.cells] for task in tasks] == [
            ["tsl_64k", "llbp"],  # weight 2.6: one group over the 64K base
            ["tsl_inf"],  # 1.3
            ["tsl_16k"],  # 1.0 each, in plan (workload-major) order
            ["tsl_16k"],
            ["tsl_16k"],
        ]
        assert [task.cells[0][0] for task in tasks[2:]] == ["kafka", "nodeapp", "delta"]
        assert all(task.grouped for task in tasks)


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
        threads = set(threading.enumerate())
        results = run_cells_parallel(SMALL, cells, 2, report=report)
        next(results)
        results.close()  # a caller abandoning the iterator mid-run
        assert interrupts.value == before + 1
        assert report.interrupted
        assert wait_for_no_children()
        # nor a pool thread, which the interpreter would join at exit
        pool_threads = [thread for thread in threading.enumerate() if thread not in threads]
        for thread in pool_threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in pool_threads)


class TestJobsClamp:
    def test_auto_is_cpu_count(self):
        assert effective_jobs(0) == (os.cpu_count() or 1)
        assert effective_jobs(None) == (os.cpu_count() or 1)

    def test_oversubscription_clamped(self):
        available = os.cpu_count() or 1
        assert effective_jobs(available + 5) == available

    def test_within_budget_untouched(self):
        assert effective_jobs(1) == 1

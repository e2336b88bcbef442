"""Tests for the structured cache keys and the persistent result cache."""

import dataclasses
import json

import pytest

from repro.core import ResultCache, Runner, RunnerConfig, cache_digest, cache_key, result_key
from repro.core import results_io
from repro.core.results_io import freeze_overrides
from repro.core.simulator import SimulationResult
from repro.tage import config as tage_config

SMALL = RunnerConfig(scale=4, num_branches=3000)


def sample_result(workload="kafka", predictor="tsl_16k"):
    return SimulationResult(
        workload=workload,
        predictor=predictor,
        instructions=90_000,
        conditional_branches=15_000,
        mispredictions=450,
        warmup_mispredictions=210,
        total_instructions=120_000,
        stats={"predictions": 15_000},
        extra={"store_reads": 800.0},
    )


class TestResultKey:
    def test_structured_fields(self):
        assert result_key("kafka", "llbp", {"b": 2, "a": 1}) == (
            "kafka",
            "llbp",
            (("a", 1), ("b", 2)),
        )

    def test_no_name_override_concatenation_collisions(self):
        # the old string key was name + repr(sorted(overrides.items())):
        # these two cells collided under it
        a = result_key("w", "llbp", {})
        b = result_key("w", "llbp[]", {})
        assert a != b

    def test_overrides_distinguish(self):
        assert result_key("w", "llbp", {"x": 1}) != result_key("w", "llbp", {"x": 2})
        assert result_key("w", "llbp", {}) != result_key("w", "llbp", {"x": 1})

    def test_key_is_hashable_with_nested_overrides(self):
        key = result_key("w", "llbpx", {"oracle_depths": {3: True, 1: False}, "ls": [1, 2]})
        assert hash(key)  # dicts/lists frozen to tuples

    def test_freeze_is_order_insensitive(self):
        assert freeze_overrides({"a": 1, "b": {"y": 2, "x": 1}}) == freeze_overrides(
            {"b": {"x": 1, "y": 2}, "a": 1}
        )


class TestCacheDigest:
    def test_stable_for_equal_keys(self):
        k1 = cache_key("kafka", "llbp", {"num_contexts": 1024}, SMALL)
        k2 = cache_key("kafka", "llbp", {"num_contexts": 1024}, SMALL)
        assert cache_digest(k1) == cache_digest(k2)

    def test_runner_config_changes_digest(self):
        base = cache_digest(cache_key("kafka", "llbp", {}, SMALL))
        for changed in (
            dataclasses.replace(SMALL, num_branches=4000),
            dataclasses.replace(SMALL, scale=8),
            dataclasses.replace(SMALL, warmup_fraction=0.5),
            dataclasses.replace(SMALL, seed=7),
        ):
            assert cache_digest(cache_key("kafka", "llbp", {}, changed)) != base

    def test_generator_version_invalidates(self):
        old = cache_digest(cache_key("kafka", "llbp", {}, SMALL, generator_version=1))
        new = cache_digest(cache_key("kafka", "llbp", {}, SMALL, generator_version=2))
        assert old != new

    def test_model_version_bump_invalidates(self, monkeypatch):
        old = cache_digest(cache_key("kafka", "llbp", {}, SMALL))
        monkeypatch.setattr(results_io, "MODEL_VERSION", results_io.MODEL_VERSION + 1)
        assert cache_digest(cache_key("kafka", "llbp", {}, SMALL)) != old

    def test_edited_preset_invalidates(self, monkeypatch):
        names = ("tsl_64k", "llbp", "llbpx_optw", "tsl_16k")
        old = {name: cache_digest(cache_key("kafka", name, {}, SMALL)) for name in names}
        edited = tage_config.tsl_64k

        def tsl_64k(scale=1):
            return dataclasses.replace(edited(scale), counter_bits=4)

        monkeypatch.setattr(tage_config, "tsl_64k", tsl_64k)
        new = {name: cache_digest(cache_key("kafka", name, {}, SMALL)) for name in names}
        # every cell over the 64K TSL misses; an unrelated preset still hits
        assert [new[n] != old[n] for n in names] == [True, True, True, False]

    def test_key_covers_the_built_predictor_config(self):
        runner = Runner(SMALL)
        predictor = runner.build_predictor("llbpx_0lat", runner.bundle("kafka"), num_contexts=1024)
        key = cache_key("kafka", "llbpx_0lat", {"num_contexts": 1024}, SMALL)
        assert key["design_config"] == repr(predictor.config)
        assert key["tage_config"] == repr(predictor.tsl.config)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"k": "v"}, sample_result())
        assert cache.get("deadbeef") == sample_result()
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "quarantined": 0,
            "temps_swept": 0,
        }

    def test_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa", {}, sample_result())
        assert cache.invalidate("aa") is True
        assert cache.invalidate("aa") is False
        assert cache.get("aa") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa", {}, sample_result())
        cache.put("bb", {}, sample_result("nodeapp"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text("{ not json")
        assert cache.get("abcd") is None

    def test_unknown_version_is_a_miss_without_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text('{"version": 99}')
        assert cache.get("abcd") is None
        # a foreign layout version is not damage: the file stays put
        assert cache.quarantined == 0
        assert (tmp_path / "abcd.json").exists()

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text("{ not json")
        assert cache.get("abcd") is None
        assert cache.quarantined == 1
        assert not (tmp_path / "abcd.json").exists()
        assert (tmp_path / "abcd.json.corrupt").exists()

    def test_right_version_missing_result_is_quarantined(self, tmp_path):
        # the truncated-then-completed-write shape: well-formed JSON,
        # current version, but no usable result payload
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text('{"version": 1, "key": {}}')
        assert cache.get("abcd") is None
        assert cache.quarantined == 1
        assert (tmp_path / "abcd.json.corrupt").exists()

    def test_malformed_result_field_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text('{"version": 1, "result": 42}')
        assert cache.get("abcd") is None
        assert cache.quarantined == 1

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text('{"version": 1}')
        assert cache.get("abcd") is None
        cache.put("abcd", {}, sample_result())
        assert cache.get("abcd") == sample_result()

    def test_quarantined_files_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "abcd.json").write_text('{"version": 1}')
        cache.get("abcd")
        assert len(cache) == 0


class TestTempSweep:
    def test_stale_temp_swept_on_init(self, tmp_path):
        (tmp_path / "abcd.json.tmp.999999999").write_text("partial")
        cache = ResultCache(tmp_path)
        assert cache.temps_swept == 1
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_unparseable_temp_suffix_swept(self, tmp_path):
        (tmp_path / "abcd.json.tmp.bogus").write_text("partial")
        assert ResultCache(tmp_path).temps_swept == 1

    def test_live_pid_temp_kept(self, tmp_path):
        import os

        live = tmp_path / f"abcd.json.tmp.{os.getpid()}"
        live.write_text("in flight")
        cache = ResultCache(tmp_path)
        assert cache.temps_swept == 0
        assert live.exists()

    def test_clear_sweeps_temps_and_corrupt_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa", {}, sample_result())
        (tmp_path / "bb.json.tmp.999999999").write_text("partial")
        (tmp_path / "cc.json").write_text("{ broken")
        cache.get("cc")  # quarantines to cc.json.corrupt
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_temps_are_invisible_to_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa", {}, sample_result())
        (tmp_path / f"bb.json.tmp.{__import__('os').getpid()}").write_text("x")
        assert len(cache) == 1


class TestRunnerCacheIntegration:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        cold = Runner(SMALL, cache=ResultCache(tmp_path))
        expected = cold.run_matrix(["kafka"], ["tsl_16k", "llbp"])
        assert cold.sim_count == 2

        warm = Runner(SMALL, cache=ResultCache(tmp_path))
        got = warm.run_matrix(["kafka"], ["tsl_16k", "llbp"])
        assert warm.sim_count == 0
        assert warm.cache.hits == 2
        assert got == expected

    def test_warm_cache_covers_overrides(self, tmp_path):
        cold = Runner(SMALL, cache=ResultCache(tmp_path))
        expected = cold.run_one("kafka", "llbp", num_contexts=1024)
        warm = Runner(SMALL, cache=ResultCache(tmp_path))
        assert warm.run_one("kafka", "llbp", num_contexts=1024) == expected
        assert warm.sim_count == 0

    def test_different_run_parameters_miss(self, tmp_path):
        Runner(SMALL, cache=ResultCache(tmp_path)).run_one("kafka", "tsl_16k")
        other = Runner(
            dataclasses.replace(SMALL, num_branches=4000), cache=ResultCache(tmp_path)
        )
        other.run_one("kafka", "tsl_16k")
        assert other.sim_count == 1  # not served by the 3000-branch entry

    def test_use_cache_false_bypasses_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(SMALL, cache=cache)
        runner.run_one("kafka", "tsl_16k", use_cache=False)
        assert len(cache) == 0 and runner.sim_count == 1

    def test_parallel_results_are_persisted_by_parent(self, tmp_path):
        cold = Runner(SMALL, cache=ResultCache(tmp_path))
        cold.run_matrix(["kafka", "nodeapp"], ["tsl_16k"], jobs=2)
        warm = Runner(SMALL, cache=ResultCache(tmp_path))
        warm.run_matrix(["kafka", "nodeapp"], ["tsl_16k"], jobs=2)
        assert warm.sim_count == 0


class TestRunnerMemoryManagement:
    def test_clear_cache_drops_results(self):
        runner = Runner(SMALL)
        runner.run_one("kafka", "tsl_16k")
        runner.run_one("kafka", "tsl_16k", num_contexts=512)
        assert runner.clear_cache() == 2
        assert runner._results == {}

    def test_clear_cache_can_drop_bundles(self):
        runner = Runner(SMALL)
        runner.run_one("kafka", "tsl_16k")
        runner.clear_cache(bundles=True)
        assert runner._bundles == {}

    def test_release_with_results_drops_only_that_workload(self):
        runner = Runner(SMALL)
        runner.run_one("kafka", "tsl_16k")
        runner.run_one("nodeapp", "tsl_16k")
        runner.release("kafka", results=True)
        assert [k[0] for k in runner._results] == ["nodeapp"]

    def test_release_keeps_results_by_default(self):
        runner = Runner(SMALL)
        runner.run_one("kafka", "tsl_16k")
        runner.release("kafka")
        assert len(runner._results) == 1


class TestCorruptWriteSelfHealing:
    def test_quarantine_then_resimulate_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        expected = Runner(SMALL).run_one("kafka", "tsl_16k")
        writer = Runner(SMALL, cache=ResultCache(cache_dir))
        writer.run_one("kafka", "tsl_16k")
        # well-formed JSON of the right version, but no result: the shape
        # a write torn between its fields would leave
        (entry,) = cache_dir.glob("*.json")
        payload = json.loads(entry.read_text())
        del payload["result"]
        entry.write_text(json.dumps(payload))

        healer = Runner(SMALL, cache=ResultCache(cache_dir))
        assert healer.run_one("kafka", "tsl_16k") == expected
        assert healer.sim_count == 1
        assert healer.cache.quarantined == 1
        assert list(cache_dir.glob("*.json.corrupt"))

        warm = Runner(SMALL, cache=ResultCache(cache_dir))
        assert warm.run_one("kafka", "tsl_16k") == expected
        assert warm.sim_count == 0  # the healed entry serves the repeat run

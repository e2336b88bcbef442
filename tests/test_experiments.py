"""Smoke tests: every experiment harness runs and formats a report."""

import pytest

from repro.core import ResultCache, Runner, RunnerConfig
from repro.core.limit_study import LIMIT_STEPS, cumulative_overrides
from repro.experiments import (
    format_breakdown,
    format_fig04,
    format_fig05,
    format_fig06_07,
    format_fig08,
    format_fig09,
    format_fig12,
    format_fig13,
    format_fig14a,
    format_fig14b,
    format_fig15,
    format_fig16,
    format_sensitivity,
    format_table1,
    format_table2,
    run_breakdown,
    run_ctt_sweep,
    run_fig01,
    run_fig04,
    run_fig05,
    run_fig06_07,
    run_fig08,
    run_fig09,
    run_fig12,
    run_fig13,
    run_fig14a,
    run_fig14b,
    run_fig15,
    run_fig16a,
    run_fig16b,
    run_hth_sweep,
    run_table1,
)

WORKLOADS = ["kafka"]


class TestTables:
    def test_table1(self, quick_runner):
        rows = run_table1(quick_runner, WORKLOADS)
        text = format_table1(rows)
        assert "kafka" in text and "paper MPKI" in text

    def test_table2(self):
        text = format_table2()
        assert "576 ROB" in text and "TAGE-SC-L" in text


class TestAccuracyFigures:
    def test_fig04(self, quick_runner):
        rows = run_fig04(quick_runner, WORKLOADS, configs=("llbp", "tsl_512k"))
        text = format_fig04(rows, configs=("llbp", "tsl_512k"))
        assert "Fig 4" in text and "kafka" in text

    def test_fig05_ladder(self, quick_runner):
        steps = run_fig05(quick_runner, WORKLOADS)
        assert len(steps) == len(LIMIT_STEPS)
        assert steps[0].normalized == 1.0
        text = format_fig05(steps)
        assert "+No Contextualization" in text

    def test_cumulative_overrides_merge(self):
        merged = cumulative_overrides(len(LIMIT_STEPS) - 1)
        assert merged["no_contextualization"] is True
        assert merged["infinite_patterns"] is True
        assert merged["use_bucketing"] is False

    def test_fig12(self, quick_runner):
        rows = run_fig12(quick_runner, WORKLOADS, configs=("llbp", "llbpx"))
        text = format_fig12(rows, configs=("llbp", "llbpx"))
        assert "X-over-LLBP" in text


class TestAnalysisFigures:
    def test_fig06_07(self, quick_runner):
        result = run_fig06_07(quick_runner, "kafka")
        text = format_fig06_07(result)
        assert "useful patterns per context" in text

    def test_fig08(self, quick_runner):
        dup = run_fig08(quick_runner, "kafka", depths=(2, 8))
        text = format_fig08(dup)
        assert "W=2" in text and "W=8" in text

    def test_fig09(self, quick_runner):
        ratios = run_fig09(quick_runner, "kafka")
        text = format_fig09(ratios)
        assert "W=2 / W=8" in text
        assert set(ratios) == {2, 64}


class TestTimingFigures:
    def test_fig01_runs_on_the_callers_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = RunnerConfig(num_branches=2000)
        runner = Runner(config, cache=cache)
        rows = run_fig01(runner, WORKLOADS)
        # the aggressive machine's config is the caller's: its cell ran there
        assert runner.sim_count == len(WORKLOADS)
        assert cache.stats()["writes"] == 2 * len(WORKLOADS)

        again = Runner(config, cache=cache)
        assert run_fig01(again, WORKLOADS) == rows
        assert again.sim_count == 0
        assert cache.stats()["writes"] == 2 * len(WORKLOADS)  # nothing simulated

    def test_fig13(self, quick_runner):
        rows = run_fig13(quick_runner, WORKLOADS, configs=("llbp",))
        text = format_fig13(rows, configs=("llbp",))
        assert "speedup" in text

    def test_fig14a(self, quick_runner):
        results = run_fig14a(quick_runner, WORKLOADS)
        text = format_fig14a(results)
        assert "timely" in text

    def test_fig14b(self, quick_runner):
        rows = run_fig14b(quick_runner, WORKLOADS)
        text = format_fig14b(rows)
        assert "overriding" in text


class TestCostFigures:
    def test_fig15(self, quick_runner):
        result = run_fig15(quick_runner, WORKLOADS)
        text = format_fig15(result)
        assert "bits/inst" not in text  # column header is b/inst
        assert "transfer bandwidth" in text
        assert "ctt" in text

    def test_fig16(self, quick_runner):
        points_a = run_fig16a(quick_runner, WORKLOADS, context_counts=(8192, 14336))
        points_b = run_fig16b(quick_runner, WORKLOADS, presets=("tsl_16k", "tsl_64k"))
        assert len(points_a) == 2 and len(points_b) == 2
        text = format_fig16(points_a, points_b)
        assert "Fig 16a" in text and "Fig 16b" in text


class TestAblations:
    def test_breakdown(self, quick_runner):
        result = run_breakdown(quick_runner, WORKLOADS)
        assert 0 <= result.range_selection_share <= 1
        assert result.depth_adaptation_share + result.range_selection_share == pytest.approx(1.0)
        assert "VII-E" in format_breakdown(result)

    def test_sensitivity(self, quick_runner):
        hth = run_hth_sweep(quick_runner, WORKLOADS, values=(37, 232))
        ctt = run_ctt_sweep(quick_runner, WORKLOADS, values=(2048, 6144))
        text = format_sensitivity(hth, ctt)
        assert "H_th" in text and "CTT" in text

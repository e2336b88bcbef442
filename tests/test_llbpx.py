"""Behavioural tests for LLBP-X."""

from dataclasses import replace

import pytest

from repro.core.simulator import simulate
from repro.llbp import DEEP_BIT, LLBPX, ContextStreams, llbpx_default
from repro.tage import TraceTensors, tsl_64k
from repro.tage.config import DEEP_HISTORY_LENGTHS, SHALLOW_HISTORY_LENGTHS, history_length_index
from tests.conftest import TEST_SCALE
from tests.test_llbp import path_correlated_trace


def build_llbpx(trace, tensors=None, **overrides):
    tensors = tensors or TraceTensors(trace)
    contexts = ContextStreams(tensors)
    config = llbpx_default(scale=TEST_SCALE, **overrides)
    return LLBPX(config, tsl_64k(scale=TEST_SCALE), tensors, contexts), tensors


class TestConfig:
    def test_depth_defaults(self):
        config = llbpx_default()
        assert config.shallow_depth == 2
        assert config.deep_depth == 64

    def test_shallow_deep_length_ranges(self):
        config = llbpx_default()
        assert config.shallow_lengths == SHALLOW_HISTORY_LENGTHS
        assert config.deep_lengths == DEEP_HISTORY_LENGTHS

    def test_ranges_disabled_fall_back(self):
        config = replace(llbpx_default(), use_history_ranges=False)
        assert config.shallow_lengths == config.history_lengths
        assert config.deep_lengths == config.history_lengths

    def test_depth_ordering_enforced(self):
        with pytest.raises(ValueError):
            llbpx_default(shallow_depth=64, deep_depth=2)

    def test_overflow_threshold_bounds(self):
        with pytest.raises(ValueError):
            llbpx_default(overflow_threshold=17)

    def test_ctt_scaling(self):
        assert llbpx_default(scale=8).effective_ctt_entries == 6144 // 8

    def test_storage_overhead_over_llbp(self):
        from repro.llbp import llbp_default

        assert llbpx_default().storage_bits() > llbp_default().storage_bits()

    def test_no_contextualization_rejected(self):
        # depth adaptation needs context IDs; the limit study's switch is LLBP's alone
        from repro.core import Runner, RunnerConfig
        from repro.llbp import llbp_default

        with pytest.raises(ValueError, match="no_contextualization"):
            llbpx_default(no_contextualization=True)
        assert llbp_default(no_contextualization=True).no_contextualization
        runner = Runner(RunnerConfig(scale=TEST_SCALE, num_branches=2000))
        for name in ("llbpx", "llbpx_optw"):
            with pytest.raises(ValueError, match="no_contextualization"):
                runner.run_one("kafka", name, no_contextualization=True)
        assert runner.sim_count == 0


class TestDepthSelection:
    def test_default_context_is_shallow(self):
        trace = path_correlated_trace(200)
        predictor, tensors = build_llbpx(trace)
        # find a record with enough UB history
        t = next(i for i in range(len(trace)) if predictor._ub_prefix[i] > 10)
        cid = predictor._context_of(t, trace.pcs[t])
        assert cid != -1 and not (cid & DEEP_BIT)

    def test_oracle_forces_deep(self):
        trace = path_correlated_trace(200)
        tensors = TraceTensors(trace)
        shallow_pred, _ = build_llbpx(trace, tensors)
        t = next(i for i in range(len(trace)) if shallow_pred._ub_prefix[i] > 10)
        shallow_id = shallow_pred._shallow_context_of(t)
        oracle_pred, _ = build_llbpx(trace, tensors, oracle_depths={shallow_id: True})
        cid = oracle_pred._context_of(t, trace.pcs[t])
        assert cid & DEEP_BIT

    def test_deep_and_shallow_id_spaces_disjoint(self):
        trace = path_correlated_trace(200)
        predictor, _ = build_llbpx(trace)
        t = next(i for i in range(len(trace)) if predictor._ub_prefix[i] > 70)
        shallow = predictor._shallow_context_of(t)
        assert shallow < DEEP_BIT

    def test_active_indices_by_depth(self):
        trace = path_correlated_trace(50)
        predictor, _ = build_llbpx(trace)
        shallow_idx = predictor._active_indices_for(123)
        deep_idx = predictor._active_indices_for(123 | DEEP_BIT)
        assert shallow_idx == [history_length_index(l) for l in SHALLOW_HISTORY_LENGTHS]
        assert deep_idx == [history_length_index(l) for l in DEEP_HISTORY_LENGTHS]

    def test_allocation_dropped_outside_range(self):
        trace = path_correlated_trace(50)
        predictor, _ = build_llbpx(trace)
        # deep context attempting a too-short length -> dropped
        target, attempted = predictor._choose_allocation_index(DEEP_BIT | 1, provider_index=-1)
        assert target == -1 and attempted == 0
        # shallow context attempting a too-long length -> dropped
        target, attempted = predictor._choose_allocation_index(1, provider_index=17)
        assert target == -1 and attempted == 18

    def test_allocation_inside_range_kept(self):
        trace = path_correlated_trace(50)
        predictor, _ = build_llbpx(trace)
        target, attempted = predictor._choose_allocation_index(1, provider_index=3)
        assert target == attempted == 4


class TestAdaptation:
    def test_simulation_populates_ctt(self, small_bundle):
        trace, tensors, contexts = small_bundle
        predictor = LLBPX(
            llbpx_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts
        )
        result = simulate(predictor, trace, tensors)
        assert result.extra["ctt_tracked"] > 0

    def test_oracle_disables_adaptation(self, small_bundle):
        trace, tensors, contexts = small_bundle
        predictor = LLBPX(
            replace(llbpx_default(scale=TEST_SCALE), oracle_depths={}),
            tsl_64k(scale=TEST_SCALE),
            tensors,
            contexts,
        )
        result = simulate(predictor, trace, tensors)
        assert result.extra["ctt_tracked"] == 0
        assert result.stats.get("depth_to_deep", 0) == 0

    def test_deep_history_records_transitions(self, small_bundle):
        trace, tensors, contexts = small_bundle
        # aggressive thresholds to force transitions on a small trace
        config = llbpx_default(
            scale=TEST_SCALE, history_threshold=6, hist_counter_step=8, overflow_threshold=1
        )
        predictor = LLBPX(config, tsl_64k(scale=TEST_SCALE), tensors, contexts)
        result = simulate(predictor, trace, tensors)
        assert result.stats.get("depth_to_deep", 0) > 0
        assert len(predictor.deep_history) > 0

    def test_collect_extra_reports_depth_state(self, small_bundle):
        trace, tensors, contexts = small_bundle
        predictor = LLBPX(
            llbpx_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts
        )
        result = simulate(predictor, trace, tensors)
        for key in ("ctt_tracked", "ctt_deep", "deep_contexts_seen"):
            assert key in result.extra


class TestAccuracy:
    def test_llbpx_improves_over_baseline(self, small_bundle):
        trace, tensors, contexts = small_bundle
        from repro.tage import TageSCL

        baseline = simulate(TageSCL(tsl_64k(scale=TEST_SCALE), tensors), trace, tensors)
        predictor = LLBPX(
            llbpx_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts
        )
        llbpx = simulate(predictor, trace, tensors)
        assert llbpx.mispredictions < baseline.mispredictions

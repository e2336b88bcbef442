"""Tests for the statistical corrector."""

import random

import pytest

from repro.core.simulator import simulate
from repro.tage import StatisticalCorrector, TageSCL, TraceTensors, tsl_64k
from repro.traces.record import BranchKind, Trace
from tests.conftest import TEST_SCALE, make_cond_trace


def make_sc(trace):
    tensors = TraceTensors(trace)
    return StatisticalCorrector(tsl_64k(scale=TEST_SCALE), tensors), tensors


class TestStatisticalCorrector:
    def test_learns_bias_and_overrides(self):
        # TAGE input claims not-taken with low confidence; reality is taken
        trace = make_cond_trace([True] * 800)
        sc, _ = make_sc(trace)
        overrode = 0
        for t in range(len(trace)):
            result = sc.predict(t, trace.pcs[t], input_pred=False, input_conf=0)
            if result.overrode:
                overrode += 1
            sc.update(t, trace.pcs[t], True, result)
        assert overrode > 600  # corrects the bogus input after warmup

    def test_respects_confident_input(self):
        rng = random.Random(1)
        trace = make_cond_trace([rng.random() < 0.5 for _ in range(500)])
        sc, _ = make_sc(trace)
        overrides = 0
        for t in range(len(trace)):
            result = sc.predict(t, trace.pcs[t], input_pred=trace.taken[t], input_conf=3)
            if result.overrode:
                overrides += 1
            sc.update(t, trace.pcs[t], trace.taken[t], result)
        # input is always right and confident: SC should rarely override
        assert overrides < 50

    def test_threshold_adapts_up_on_bad_overrides(self):
        rng = random.Random(2)
        trace = make_cond_trace([rng.random() < 0.5 for _ in range(2000)])
        sc, _ = make_sc(trace)
        theta0 = sc.theta
        for t in range(len(trace)):
            # input prediction is perfect; any override is wrong
            result = sc.predict(t, trace.pcs[t], input_pred=trace.taken[t], input_conf=0)
            sc.update(t, trace.pcs[t], trace.taken[t], result)
        assert sc.theta >= theta0

    def test_local_history_component(self):
        # pattern branch interleaved with noise: only local history can fix it
        rng = random.Random(7)
        pattern = [True, False, True, True, False]
        trace = Trace(name="toy")
        for i in range(4000):
            trace.append(0x1000, 0x2000, BranchKind.COND, rng.random() < 0.5, 3)
            trace.append(0x3000, 0x4000, BranchKind.COND, pattern[i % 5], 3)
        tensors = TraceTensors(trace)
        predictor = TageSCL(tsl_64k(scale=TEST_SCALE), tensors)
        miss = total = 0
        for t in range(len(trace)):
            pc, taken = trace.pcs[t], trace.taken[t]
            pred = predictor.predict(t, pc)
            if pc == 0x3000 and t > len(trace) // 2:
                total += 1
                miss += pred.pred != taken
            predictor.update(t, pc, taken, pred)
        assert miss / total < 0.05


    def test_fused_kernel_requires_four_history_tables(self, monkeypatch):
        import repro.tage.statistical_corrector as sc_module

        monkeypatch.setattr(sc_module, "SC_HISTORY_LENGTHS", (0, 4, 10, 18))
        with pytest.raises(ValueError, match="4 history tables"):
            make_sc(make_cond_trace([True] * 10))


class TestSCIntegration:
    def test_sc_improves_biased_noise(self):
        rng = random.Random(3)
        outcomes = [rng.random() < 0.9 for _ in range(4000)]
        trace = make_cond_trace(outcomes)
        tensors = TraceTensors(trace)
        from dataclasses import replace

        with_sc = simulate(TageSCL(tsl_64k(scale=TEST_SCALE), tensors), trace, tensors)
        without = simulate(
            TageSCL(replace(tsl_64k(scale=TEST_SCALE), use_sc=False), tensors), trace, tensors
        )
        assert with_sc.mispredictions <= without.mispredictions

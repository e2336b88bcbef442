"""Fused-kernel equivalence: ``step`` must match ``predict``/``update`` bit for bit.

The fused hot-path kernels (``TageCore.fused_step``,
``StatisticalCorrector.fused_step``, ``TageSCL.step``, ``LLBP.step``)
re-implement the per-branch loop with hoisted locals and no prediction
records.  This suite is their correctness contract: for every workload
profile and every predictor family, in both finite and infinite TAGE
modes, a simulation driven by the fused kernel must produce *identical*
misprediction counts, statistics, derived metrics, and -- the strong
form -- identical internal predictor state down to every table entry.

The LLBP-family tail specialises on its design at build time, so
:data:`TAIL_VARIANTS` runs every configuration branch it has -- zero
latency, the Fig 5 limit-study ladder, useful-pattern tracking, the
wrong-path model, LLBP-X without history ranges, a CTT under eviction
pressure, and Opt-W's oracle depths -- against the oracle as well.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import pytest

from repro.core.batched import resolve_configs
from repro.core.limit_study import LIMIT_STEPS, cumulative_overrides
from repro.core.simulator import simulate
from repro.llbp import LLBP, LLBPX, ContextStreams, LLBPXConfig, llbp_default, llbpx_default
from repro.tage import TageSCL, TraceTensors, tsl_64k, tsl_infinite
from repro.traces.workloads import WORKLOAD_NAMES, generate_workload
from tests.conftest import TEST_SCALE
from tests.test_golden import CTT_PRESSURE

CONFIG_NAMES = ("tsl_64k", "llbp", "llbpx")
NUM_BRANCHES = 2_000

#: id -> ``(config, overrides)`` of every design branch the LLBP-family
#: tail specialises on; ``oracle_depths=None`` asks for Opt-W's oracle,
#: built from a CTT-pressure profiling pass
TAIL_VARIANTS = {
    "llbp_0lat": ("llbp_0lat", {}),
    "llbpx_0lat": ("llbpx_0lat", {}),
    **{
        "llbp_0lat+" + label.lstrip("+").lower().replace(" ", "_"): (
            "llbp_0lat",
            cumulative_overrides(step),
        )
        for step, (label, _) in enumerate(LIMIT_STEPS)
        if step > 0
    },
    "llbp+track_useful": ("llbp", {"track_useful": True}),
    "llbp+false_path": ("llbp", {"model_false_path": True}),
    "llbp+false_path_flushed": ("llbp", {"model_false_path": True, "flush_false_path": True}),
    "llbpx+false_path": ("llbpx", {"model_false_path": True}),
    "llbpx+false_path_flushed": ("llbpx", {"model_false_path": True, "flush_false_path": True}),
    "llbpx+no_history_ranges": ("llbpx", {"use_history_ranges": False}),
    "llbpx+ctt_pressure": ("llbpx", dict(CTT_PRESSURE)),
    "llbpx_optw+ctt_pressure": ("llbpx", dict(CTT_PRESSURE, oracle_depths=None)),
}
#: profiles whose CTT-pressure runs evict and switch contexts to deep
VARIANT_WORKLOADS = ("kafka", "merced", "whiskey")


# -- state digests --------------------------------------------------------------


def _pattern_set_state(pset):
    return (
        pset.capacity,
        pset.dirty,
        tuple((p.length_index, p.tag, p.ctr, p.useful) for p in pset.patterns),
    )


def _tage_state(core):
    if core.config.infinite:
        tables = tuple(
            tuple(sorted((key, tuple(entry)) for key, entry in table.items()))
            for table in core._inf_tables
        )
    else:
        tables = (
            tuple(bytes(a) for a in core._tags),
            tuple(bytes(a) for a in core._ctrs),
            tuple(bytes(a) for a in core._useful),
        )
    return (
        tables,
        bytes(core._bimodal),
        core._use_alt,
        core._tick,
        core._alloc_rand,
    )


def _sc_state(sc):
    return (
        bytes(sc._bias),
        tuple(bytes(t) for t in sc._tables),
        bytes(sc._local_table),
        bytes(sc._local_hist),
        sc._theta,
        sc._theta_counter,
    )


def _loop_state(loop):
    return tuple(
        (e.tag, e.past_iter, e.current_iter, e.confidence, e.age, e.direction)
        for e in loop._entries
    )


def _tsl_state(tsl):
    return (
        _tage_state(tsl.tage),
        _sc_state(tsl.sc) if tsl.sc is not None else None,
        _loop_state(tsl.loop) if tsl.loop is not None else None,
    )


def _store_state(store):
    if store.infinite:
        return tuple(sorted((cid, _pattern_set_state(s)) for cid, s in store._flat.items()))
    return tuple(
        sorted(
            (si, tuple((tag, _pattern_set_state(s)) for tag, s in ways))
            for si, ways in store._sets.items()
        )
    )


def _pb_state(pb):
    # OrderedDict iteration order IS the LRU order -- part of the state
    return tuple(
        (cid, e.available_at, e.used, e.late, e.from_prefetch, e.false_path,
         _pattern_set_state(e.pattern_set))
        for cid, e in pb.items()
    )


def _ctt_state(ctt):
    return tuple(
        sorted(
            (si, tuple((tag, e.avg_hist_len, e.deep) for tag, e in ways.items()))
            for si, ways in ctt._sets.items()
        )
    )


def _predictor_state(predictor):
    if isinstance(predictor, LLBP):
        return (
            _tsl_state(predictor.tsl),
            _store_state(predictor.store),
            _pb_state(predictor.pattern_buffer),
            tuple(sorted((cid, _pattern_set_state(s)) for cid, s in predictor._direct.items())),
            tuple(sorted(predictor.tracker.useful.items())) if predictor.tracker else None,
            _ctt_state(predictor.ctt) if isinstance(predictor, LLBPX) else None,
        )
    return _tsl_state(predictor)


# -- construction ---------------------------------------------------------------


def _build(config_name: str, tage_config, tensors, contexts):
    if config_name == "tsl_64k":
        return TageSCL(tage_config, tensors)
    if config_name == "llbp":
        return LLBP(llbp_default(scale=TEST_SCALE), tage_config, tensors, contexts)
    return LLBPX(llbpx_default(scale=TEST_SCALE), tage_config, tensors, contexts)


@pytest.fixture(scope="module")
def bundles() -> Dict[str, tuple]:
    """One small (trace, tensors, contexts) bundle per workload profile."""
    out = {}
    for name in WORKLOAD_NAMES:
        trace = generate_workload(name, num_branches=NUM_BRANCHES, use_cache=False)
        tensors = TraceTensors(trace)
        out[name] = (trace, tensors, ContextStreams(tensors))
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("mode", ("finite", "infinite"))
def test_fused_step_is_bit_identical(bundles, workload, config_name, mode):
    trace, tensors, contexts = bundles[workload]
    if mode == "finite":
        tage_config = tsl_64k(scale=TEST_SCALE)
    else:
        tage_config = replace(tsl_infinite(), name=f"tsl_inf_{config_name}")

    fused_predictor = _build(config_name, tage_config, tensors, contexts)
    fused = simulate(fused_predictor, trace, tensors, use_step=True)
    reference_predictor = _build(config_name, tage_config, tensors, contexts)
    reference = simulate(reference_predictor, trace, tensors, use_step=False)

    assert fused.mispredictions == reference.mispredictions
    assert fused.warmup_mispredictions == reference.warmup_mispredictions
    assert fused.conditional_branches == reference.conditional_branches
    assert fused.stats == reference.stats
    assert fused.extra == reference.extra
    assert _predictor_state(fused_predictor) == _predictor_state(reference_predictor)


def _build_variant(name, overrides, tensors, contexts):
    tage_config, design = resolve_configs(name, TEST_SCALE, overrides)
    family = LLBPX if isinstance(design, LLBPXConfig) else LLBP
    return family(design, tage_config, tensors, contexts)


@pytest.mark.parametrize("workload", VARIANT_WORKLOADS)
@pytest.mark.parametrize("variant", TAIL_VARIANTS)
def test_tail_variant_is_bit_identical(bundles, workload, variant):
    trace, tensors, contexts = bundles[workload]
    name, overrides = TAIL_VARIANTS[variant]
    if "oracle_depths" in overrides:
        # Opt-W: fix the depths a profiling pass switched to deep
        profile = _build_variant(name, dict(overrides, oracle_depths=None), tensors, contexts)
        simulate(profile, trace, tensors)
        assert profile.deep_history, "the profiling pass made no context deep"
        overrides = dict(overrides, oracle_depths={cid: True for cid in profile.deep_history})

    fused_predictor = _build_variant(name, overrides, tensors, contexts)
    fused = simulate(fused_predictor, trace, tensors, use_step=True)
    reference_predictor = _build_variant(name, overrides, tensors, contexts)
    reference = simulate(reference_predictor, trace, tensors, use_step=False)

    assert fused.mispredictions == reference.mispredictions
    assert fused.warmup_mispredictions == reference.warmup_mispredictions
    assert fused.stats == reference.stats
    assert fused.extra == reference.extra
    assert _predictor_state(fused_predictor) == _predictor_state(reference_predictor)
    if overrides == CTT_PRESSURE:
        # the variant exists to exercise replacement and depth transitions
        ctt_stats = fused_predictor.ctt.stats
        assert ctt_stats.get("evictions") > 0
        assert ctt_stats.get("to_deep") >= 1


def test_use_step_true_requires_kernel(bundles):
    trace, tensors, _ = bundles[WORKLOAD_NAMES[0]]

    class Bare:
        name = "bare"

        def predict(self, t, pc):
            raise AssertionError("unused")

        def update(self, t, pc, taken, prediction):
            raise AssertionError("unused")

        def on_unconditional(self, t, pc, target):
            pass

    with pytest.raises(ValueError, match="no fused step"):
        simulate(Bare(), trace, tensors, use_step=True)

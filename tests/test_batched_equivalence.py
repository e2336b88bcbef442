"""Shared-base group equivalence: a group must match one base per cell bit for bit.

:mod:`repro.core.batched` runs matrix cells sharing one base
:class:`~repro.tage.config.TageConfig` as one base record plus per-lane
replay tails.  This suite is its correctness contract: for every
workload profile, every grouped configuration family, and a Fig-16
capacity-sweep group, a lane's result must be *identical* to the same
cell run over a base of its own -- misprediction counts, statistics,
derived metrics, and (the strong form) full internal predictor state
down to every table entry.  It also pins planning (every cell with a
base config is grouped, ``tsl_inf`` included), Opt-W's single base,
that ``predict``/``update`` never record a base, and the keyed timing
store's migration of bare legacy keys.
"""

from __future__ import annotations

import pytest

from repro.core import Runner, RunnerConfig
from repro.core.batched import base_config, plan_batches, run_group
from repro.core.simulator import simulate
from repro.experiments.fig16_capacity import FIG16A_CONTEXTS
from repro.obs.metrics import registry as obs_registry
from repro.tage.batched_state import SharedBase
from repro.tage.config import preset_by_name, tsl_64k
from repro.traces.workloads import WORKLOAD_NAMES
from tests.conftest import TEST_SCALE
from tests.test_step_equivalence import _predictor_state

CONFIG_NAMES = ("tsl_64k", "llbp", "llbpx")
NUM_BRANCHES = 2_000
SMALL = RunnerConfig(scale=TEST_SCALE, num_branches=NUM_BRANCHES)


def _reference_outcome(runner, workload, name, **overrides):
    """One cell run over a base of its own: (result, predictor).

    Mirrors ``Runner.run_one`` but keeps the predictor instance so its
    final table state can be digested and compared against the grouped
    lane's predictor.
    """
    bundle = runner.bundle(workload)
    predictor = runner.build_predictor(name, bundle, **overrides)
    result = simulate(
        predictor,
        bundle.trace,
        bundle.tensors,
        warmup_fraction=runner.config.warmup_fraction,
    )
    result.predictor = name
    return result, predictor


def _one_base_each(cells):
    """Each cell's result over a base of its own (``run_one`` per cell)."""
    runner = Runner(SMALL)
    return [runner.run_one(w, name, use_cache=False, **o) for w, name, o in cells]


def _assert_lane_matches_reference(outcome, reference_result, reference_predictor):
    assert outcome.result.mispredictions == reference_result.mispredictions
    assert outcome.result.warmup_mispredictions == reference_result.warmup_mispredictions
    assert outcome.result.conditional_branches == reference_result.conditional_branches
    assert outcome.result.stats == reference_result.stats
    assert outcome.result.extra == reference_result.extra
    assert outcome.result == reference_result  # full dataclass equality
    assert _predictor_state(outcome.predictor) == _predictor_state(reference_predictor)


# -- bit-identity: every workload, every grouped family --------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_batched_group_is_bit_identical(workload):
    cells = [(workload, name, {}) for name in CONFIG_NAMES]
    plan = plan_batches(cells, TEST_SCALE)
    assert [len(g) for g in plan.groups] == [len(CONFIG_NAMES)]
    assert plan.singles == [] and plan.fallbacks == 0

    batched_runner = Runner(SMALL)
    outcomes = list(run_group(batched_runner, workload, plan.groups[0]))
    assert [o.cell for o in outcomes] == cells

    reference_runner = Runner(SMALL)
    for outcome in outcomes:
        _, name, _ = outcome.cell
        result, predictor = _reference_outcome(reference_runner, workload, name)
        _assert_lane_matches_reference(outcome, result, predictor)
        assert outcome.seconds > 0


def test_fig16_capacity_sweep_group_is_bit_identical():
    """The motivating group: tsl_64k + the Fig-16a LLBP-X capacity lanes."""
    cells = [("kafka", "tsl_64k", {})] + [
        ("kafka", "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64})
        for contexts in FIG16A_CONTEXTS
    ]
    plan = plan_batches(cells, TEST_SCALE)
    assert plan.lanes == len(cells) and plan.fallbacks == 0

    outcomes = run_group(Runner(SMALL), "kafka", plan.groups[0])
    reference_runner = Runner(SMALL)
    for outcome in outcomes:
        _, name, overrides = outcome.cell
        result, predictor = _reference_outcome(reference_runner, "kafka", name, **overrides)
        _assert_lane_matches_reference(outcome, result, predictor)


# -- planning --------------------------------------------------------------------


class TestPlanning:
    def test_base_config_of_llbp_family_is_shared_tsl_64k(self):
        expected = tsl_64k(scale=TEST_SCALE)
        for name in ("llbp", "llbp_0lat", "llbpx", "llbpx_0lat"):
            assert base_config(name, TEST_SCALE) == expected
        assert base_config("tsl_64k", TEST_SCALE) == expected

    def test_base_config_rejects_structurally_divergent_cells(self):
        assert base_config("llbpx_optw", TEST_SCALE) is None  # profile-then-replay
        assert base_config("nonsense", TEST_SCALE) is None

    def test_plan_groups_infinite_cells(self):
        cells = [("kafka", "tsl_inf", {}), ("kafka", "tsl_64k", {}), ("kafka", "llbp", {})]
        assert base_config("tsl_inf", TEST_SCALE) == preset_by_name("tsl_inf")
        plan = plan_batches(cells, TEST_SCALE)
        assert plan.groups == [[("kafka", "tsl_inf", {})], cells[1:]]
        assert plan.singles == [] and plan.fallbacks == 0

    def test_lone_cells_are_one_lane_groups(self):
        cells = [
            ("kafka", "tsl_16k", {}),
            ("kafka", "tsl_64k", {}),
            ("nodeapp", "tsl_64k", {}),
            ("kafka", "llbpx_optw", {}),
        ]
        plan = plan_batches(cells, TEST_SCALE)
        # one group per (workload, base config), however few lanes
        assert plan.groups == [[cell] for cell in cells[:3]]
        assert plan.singles == [("kafka", "llbpx_optw", {})] and plan.fallbacks == 1
        with pytest.raises(TypeError):
            plan_batches(cells, TEST_SCALE, min_lanes=2)

    def test_resolve_backend_values(self):
        assert Runner(SMALL).backend == "auto"
        assert Runner(SMALL, backend="auto").backend == "auto"
        for retired in ("reference", "batched", "vectorised"):
            with pytest.raises(ValueError):
                Runner(SMALL, backend=retired)


class TestRunnerIntegration:
    CELLS = [
        (workload, name, {})
        for workload in ("kafka", "nodeapp")
        for name in ("tsl_64k", "llbp", "tsl_inf")
    ]

    def test_auto_backend_matches_reference_and_reports_groups(self):
        expected = _one_base_each(self.CELLS)
        fallbacks_before = obs_registry().counter("backend.fallbacks").value
        runner = Runner(SMALL)
        assert runner.run_cells(self.CELLS) == expected
        assert obs_registry().counter("backend.fallbacks").value == fallbacks_before

        report = runner.report
        # per workload: {tsl_64k, llbp} on one base, tsl_inf on its own
        assert report.batched_group_sizes == [2, 1, 2, 1]
        totals = report.totals()
        assert totals["batched_groups"] == 4 and totals["batched_lanes"] == 6
        assert "batched_groups=4" in report.summary()

    def test_forced_batched_runs_singleton_groups(self):
        expected = Runner(SMALL).run_one("kafka", "tsl_64k")
        runner = Runner(SMALL)
        assert runner.run_cells([("kafka", "tsl_64k", {})]) == [expected]
        assert runner.report.batched_group_sizes == [1]

    def test_parallel_batched_matches_serial_reference(self):
        cells = [(w, c, {}) for w in ("kafka", "nodeapp") for c in ("tsl_64k", "llbp")]
        expected = _one_base_each(cells)
        runner = Runner(SMALL)
        assert runner.run_cells(cells, jobs=2) == expected
        assert runner.report.totals()["batched_lanes"] == 4


# -- who records a base -----------------------------------------------------------


@pytest.fixture
def base_records(monkeypatch):
    """List that gains one entry per ``SharedBase.record`` call."""
    calls = []
    original = SharedBase.record

    def counting(self, trace, tensors):
        calls.append(self.config.name)
        original(self, trace, tensors)

    monkeypatch.setattr(SharedBase, "record", counting)
    return calls


def test_optw_cell_records_exactly_one_base(base_records):
    result = Runner(SMALL).run_one("kafka", "llbpx_optw")
    assert base_records == ["tsl_64k"]  # profile + both oracle replays share it
    assert result.predictor == "llbpx_optw"


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_predict_update_never_records_a_base(base_records, name):
    runner = Runner(SMALL)
    bundle = runner.bundle("kafka")
    predictor = runner.build_predictor(name, bundle)
    simulate(predictor, bundle.trace, bundle.tensors, use_step=False)
    tsl = predictor if name.startswith("tsl_") else predictor.tsl
    assert base_records == [] and not tsl.base.recorded
    assert callable(predictor.step)  # the tail: its first use records the base
    assert base_records == ["tsl_64k"] and tsl.base.recorded

"""The runner's memo: each trace generated and each base stream recorded once.

A :class:`~repro.core.runner.Runner` keeps every trace it generates and
every (workload, base config) stream it records for its whole lifetime,
and :meth:`~repro.core.runner.Runner.shared_base` resolves base streams
memo-first.  Pool workers start from the parent's memo and hand back
what they produce.  These tests count ``SharedBase.record`` and trace
generation calls through wrappers that append to a file, so forked pool
workers count too, and check every result against a fresh runner's.
"""

from __future__ import annotations

import copy
import os
import pickle

import numpy as np
import pytest

import repro.core.parallel as parallel
import repro.core.runner as runner_module
from repro.core import ArtifactStore, Runner, RunnerConfig
from repro.core.analysis import context_profile, duplication_by_depth
from repro.core.batched import base_config
from repro.core.simulator import simulate
from repro.experiments.fig16_capacity import run_fig16b
from repro.llbp import LLBPX, llbpx_default
from repro.tage import TageCore, preset_by_name
from repro.tage.batched_state import SharedBase
from repro.traces import generate_workload
from tests.conftest import TEST_SCALE

SMALL = RunnerConfig(scale=TEST_SCALE, num_branches=2_000)
TSL_64K = base_config("tsl_64k", TEST_SCALE)


def _append(path, line: str) -> None:
    with open(path, "a") as handle:
        handle.write(line + "\n")


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """``calls(kind)``: sorted ``record``/``generate``/``core`` calls so far.

    ``record`` lines are ``<workload>/<base config>``, ``generate`` and
    ``core`` lines the workload.  The CPU count is raised to at least two,
    so that jobs=2 runs a two-worker pool even on a one-CPU machine.
    """
    log = tmp_path / "calls.log"
    record = SharedBase.record
    generate = runner_module.generate_workload
    core_init = TageCore.__init__

    def counting_record(self, trace, tensors):
        _append(log, "record %s/%s" % (trace.name, self.config.name))
        record(self, trace, tensors)

    def counting_generate(name, *args, **kwargs):
        _append(log, "generate %s" % name)
        return generate(name, *args, **kwargs)

    def counting_core(self, config, tensors):
        _append(log, "core %s" % tensors.trace.name)
        core_init(self, config, tensors)

    monkeypatch.setattr(SharedBase, "record", counting_record)
    monkeypatch.setattr(runner_module, "generate_workload", counting_generate)
    monkeypatch.setattr(TageCore, "__init__", counting_core)
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))

    def read(kind):
        if not log.exists():
            return []
        prefix = kind + " "
        return sorted(line[len(prefix):] for line in log.read_text().splitlines() if line.startswith(prefix))

    return read


def _fresh(cells):
    """Each cell's result from a fresh runner (its own base, no memo)."""
    runner = Runner(SMALL)
    return [runner.run_one(w, name, use_cache=False, **o) for w, name, o in cells]


# one task per workload in the first call, so a two-worker pool generates
# each trace in exactly one worker
FIRST = [("kafka", "tsl_64k", {}), ("kafka", "llbp", {}), ("nodeapp", "tsl_64k", {})]
SECOND = [
    ("kafka", "llbpx", {}),
    ("nodeapp", "llbp", {}),
    ("kafka", "tsl_16k", {}),
    ("nodeapp", "llbpx_optw", {}),
]


@pytest.mark.parametrize("jobs", [1, 2])
def test_calls_record_each_base_and_generate_each_trace_once(calls, jobs):
    runner = Runner(SMALL)
    first = runner.run_cells(FIRST, jobs=jobs)
    second = runner.run_cells(SECOND, jobs=jobs)
    assert calls("record") == ["kafka/tsl_16k", "kafka/tsl_64k", "nodeapp/tsl_64k"]
    assert calls("generate") == ["kafka", "nodeapp"]
    assert first == _fresh(FIRST) and second == _fresh(SECOND)
    # lanes over a memoised stream run tail-only, like store-adopted lanes
    warm = {(c.workload, c.config) for c in runner.report.cells() if c.base_warm}
    assert warm == {("kafka", "llbpx"), ("nodeapp", "llbp")}
    assert set(runner._streams) == {
        ("kafka", TSL_64K),
        ("nodeapp", TSL_64K),
        ("kafka", base_config("tsl_16k", TEST_SCALE)),
    }


def test_analyses_over_a_memoised_stream_record_nothing(calls):
    runner = Runner(SMALL)
    runner.run_cells([("nodeapp", "tsl_64k", {})])
    assert calls("record") == ["nodeapp/tsl_64k"]
    profile = context_profile(runner, "nodeapp")
    duplication = duplication_by_depth(runner, "nodeapp", depths=(2, 8))
    assert calls("record") == ["nodeapp/tsl_64k"]

    fresh = Runner(SMALL)
    assert profile == context_profile(fresh, "nodeapp")
    assert duplication == duplication_by_depth(fresh, "nodeapp", depths=(2, 8))


def test_fig16b_records_each_base_once(calls):
    workloads, presets = ["kafka", "nodeapp"], ("tsl_16k", "tsl_64k")
    points = run_fig16b(Runner(SMALL), workloads, presets=presets)
    assert calls("record") == sorted("%s/%s" % (w, p) for w in workloads for p in presets)

    # the same reductions from predictors that record their own bases
    fresh = Runner(SMALL)
    for point, preset in zip(points, presets):
        reductions = []
        for workload in workloads:
            bundle = fresh.bundle(workload)
            predictor = LLBPX(
                llbpx_default(scale=TEST_SCALE, zero_latency=True),
                preset_by_name(preset, scale=TEST_SCALE),
                bundle.tensors,
                bundle.contexts,
            )
            improved = simulate(predictor, bundle.trace, bundle.tensors)
            reductions.append(runner_module.reduction(fresh.run_one(workload, preset), improved))
        assert point.reduction_percent == sum(reductions) / len(reductions)


def test_optw_after_llbpx_records_nothing(calls):
    runner = Runner(SMALL)
    runner.run_cells([("kafka", "llbpx", {})])
    assert calls("record") == ["kafka/tsl_64k"]
    result = runner.run_cells([("kafka", "llbpx_optw", {})])
    assert calls("record") == ["kafka/tsl_64k"]
    assert result == _fresh([("kafka", "llbpx_optw", {})])


def test_clear_cache_with_bundles_empties_the_memo(calls):
    runner = Runner(SMALL)
    runner.run_cells([("kafka", "tsl_64k", {})])
    assert runner._traces and runner._streams
    runner.release("kafka")
    assert runner._traces and runner._streams  # release keeps the memo
    runner.clear_cache(bundles=True)
    assert not runner._traces and not runner._streams
    runner.run_cells([("kafka", "tsl_64k", {})])
    assert calls("record") == ["kafka/tsl_64k"] * 2
    assert calls("generate") == ["kafka"] * 2


def test_adopted_lanes_never_build_a_core(calls):
    runner = Runner(SMALL)
    runner.run_cells([("kafka", "tsl_64k", {})])
    assert calls("core") == ["kafka"]  # the record pass
    cells = [("kafka", "llbp", {}), ("kafka", "llbpx", {}), ("kafka", "llbp_0lat", {})]
    assert runner.run_cells(cells) == _fresh(cells)
    fresh_cores = len(cells)  # each fresh cell records its own base
    assert calls("core") == ["kafka"] * (1 + fresh_cores)

    # the predict/update oracle over an adopted base still builds one
    shared = runner.shared_base("kafka", TSL_64K)
    assert shared.adopted
    bundle = runner.bundle("kafka")
    predictor = runner.build_predictor("llbp", bundle, base=shared)
    oracle = simulate(predictor, bundle.trace, bundle.tensors, use_step=False)
    assert calls("core") == ["kafka"] * (2 + fresh_cores)
    oracle.predictor = "llbp"
    assert oracle == _fresh([("kafka", "llbp", {})])[0]


def test_warm_bases_skips_existing_streams_and_records_missing_ones(calls, tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    bases = [TSL_64K, base_config("tsl_16k", TEST_SCALE)]
    assert store.warm_bases(["kafka"], SMALL, bases) == (2, 0)
    assert store.warm_bases(["kafka", "nodeapp"], SMALL, bases) == (2, 2)
    assert calls("record") == ["kafka/tsl_16k", "kafka/tsl_64k", "nodeapp/tsl_16k", "nodeapp/tsl_64k"]
    assert store.base_writes == 4


def test_simulate_task_hands_back_what_it_produced(monkeypatch):
    # a fresh process-global worker runner; both entries are restored after
    monkeypatch.setitem(parallel._WORKER_STATE, "key", None)
    monkeypatch.setitem(parallel._WORKER_STATE, "runner", None)
    first = parallel.simulate_task(SMALL, [("kafka", "tsl_64k", {})])
    assert list(first.traces) == ["kafka"] and list(first.streams) == [("kafka", TSL_64K)]
    assert [warm for _, _, _, warm in first.records] == [False]

    second = parallel.simulate_task(SMALL, [("kafka", "llbp", {})])
    assert second.traces == {} and second.streams == {}
    assert [warm for _, _, _, warm in second.records] == [True]


def test_traces_travel_as_columns_only():
    trace = generate_workload("kafka", num_branches=2_000)
    trace.aslists("pcs", "taken")
    assert trace._list_cache
    for twin in (pickle.loads(pickle.dumps(trace)), copy.copy(trace)):
        assert twin._list_cache == {}
        assert twin == trace
    assert np.shares_memory(copy.copy(trace).pcs, trace.pcs)  # a copy shares the columns

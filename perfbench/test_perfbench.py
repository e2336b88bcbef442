"""Self-tests of the benchmark at a tiny trace length.

    python3 -m pytest -q perfbench

Expectations are recorded in-process at the tiny length first, so these
tests check the benchmark's machinery, not the committed expectations.
"""

from __future__ import annotations

import copy
import json
import math

import pytest

import run
import tracer
from record_expected import record_expectations
from workloads import WORKLOADS

TINY = 1500
SPEC = json.loads(run.BENCHMARK_JSON.read_text())


@pytest.fixture(scope="module")
def expected():
    return record_expectations(tuple(WORKLOADS), branches=TINY)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_and_checks_out(expected, name, trace):
    record, result = run.run_benchmark(name, 0, 0.0, trace, expected, branches=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    if trace:
        # the named layers must account for at least 90% of a traced pass
        assert record["per_layer"]["trace.closure_ratio"] >= 0.9
        assert record["closure_ok"] and record["traced_outputs_match"]
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", ["matrix_cold", "cli_rerun"])
def test_tampered_expectation_counts_as_failure(expected, name):
    tampered = copy.deepcopy(expected)
    outputs = tampered["workloads"][name]["default"]
    first = sorted(outputs)[0]
    outputs[first] = "0" * 16
    record, result = run.run_benchmark(name, 0, 0.0, False, tampered, branches=TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert record["failed_ratio"] > 0


def test_closure_below_floor_fails_the_run(expected, monkeypatch):
    monkeypatch.setattr(tracer, "CLOSURE_FLOOR", 1.01)
    record, result = run.run_benchmark("cli_rerun", 0, 0.0, True, expected, branches=TINY)
    assert not record["closure_ok"]
    assert not result["correct"] and result["failed"] == 1


def test_closure_leaves_out_catch_all_roots():
    def span(span_id, name, start, end, parent=None, pid=1):
        return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "pid": pid}

    spans = [
        span("1:1", "experiments.fig12", 0.0, 10.0),
        span("1:2", "simulator.simulate", 1.0, 3.0, "1:1"),
        span("1:3", "parallel.dispatch", 4.0, 8.0, "1:1"),
        span("2:1", "parallel.task", 4.0, 8.0, "1:3", pid=2),
        span("2:2", "simulator.simulate", 4.0, 7.0, "2:1", pid=2),
    ]
    own = tracer.self_times(spans)
    # 2 s of simulate, plus the 4 s dispatch at the workers' 3/4 coverage
    assert tracer.closure_ratio(spans, own, 1, 10.0) == pytest.approx(0.5)


def test_cli_rerun_calls_start_from_the_filled_cache(tmp_path):
    workload = WORKLOADS["cli_rerun"](TINY)
    (tmp_path / "setup").mkdir()
    state = workload.setup(tmp_path / "setup", None)
    passes = [run.timed_pass(workload, state, tmp_path / ("pass-%d" % i), None) for i in range(3)]
    # the fill's ledger segment and the call's own, on every call
    assert [p.result.extra["ledger.segments"] for p in passes] == [2.0, 2.0, 2.0]
    assert all(p.result.child_peak_rss_mb > 0 for p in passes)


def test_held_out_seed_has_its_own_expectation(expected):
    default = expected["workloads"]["matrix_cold"]["default"]
    held_out = expected["workloads"]["matrix_cold"]["held_out"]
    assert default.keys() == held_out.keys() and default != held_out
    _, result = run.run_benchmark("matrix_cold", 1, 0.0, False, expected, branches=TINY)
    assert result["correct"]

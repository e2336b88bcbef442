"""Run-history ledger and regression watchdog.

Covers the observability tentpole end to end: crash-safe JSONL storage
(torn tails skipped, index advisory only), automatic appends from
``run_matrix`` and the CLI session fallback, the check-before-update
baseline ordering, synthetic slowdown / digest-flip flagging, the
Prometheus text renderer's format invariants, dead-pid telemetry
compaction, and the ``repro history`` CLI verbs.
"""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.core import ResultCache, Runner, RunnerConfig
from repro.obs.events import compact_events
from repro.obs.ledger import (
    LEDGER_DIRNAME,
    RunLedger,
    build_run_record,
    matrix_digest,
    result_digest,
)
from repro.obs.metrics import MetricsRegistry, to_prometheus
from repro.obs.regress import (
    BASELINES_FILENAME,
    baseline_key,
    check_and_update,
    check_record,
    load_baselines,
    save_baselines,
    update_baseline,
)

BRANCHES = 4_000
SCALE = 2
WORKLOADS = ["nodeapp"]
CONFIGS = ["tsl_8k", "tsl_16k"]


def _runner(cache_dir):
    return Runner(RunnerConfig(scale=SCALE, num_branches=BRANCHES), cache=ResultCache(cache_dir))


def _bench_record(**overrides):
    """A minimal synthetic record (bench shape: no embedded report)."""
    record = {
        "source": "bench",
        "backend": "auto",
        "matrix_digest": "m" * 16,
        "result_digest": "r" * 16,
        "cells": 2,
        "cache_hit_rate": 1.0,
        "wall_seconds": 1.0,
        "cpu_seconds": 1.0,
        "branches_per_sec": 100_000.0,
        "host": "testhost",
    }
    record.update(overrides)
    return record


# -- storage ----------------------------------------------------------------


def test_append_and_read_round_trip(tmp_path):
    ledger = RunLedger(tmp_path / LEDGER_DIRNAME)
    first = ledger.append(_bench_record())
    second = ledger.append(_bench_record(branches_per_sec=90_000.0))
    assert first["run_id"] != second["run_id"]
    records = ledger.records()
    assert [r["run_id"] for r in records] == [first["run_id"], second["run_id"]]
    assert ledger.count() == 2


def test_torn_tail_recovery(tmp_path):
    """A SIGKILL mid-append tears only the final line; reads skip it."""
    ledger = RunLedger(tmp_path / LEDGER_DIRNAME)
    kept = ledger.append(_bench_record())
    segment = next(ledger.directory.glob("segment-*.jsonl"))
    with open(segment, "a") as handle:
        handle.write('{"run_id": "torn", "ts": 99')  # no newline, no close
    records = ledger.records()
    assert [r["run_id"] for r in records] == [kept["run_id"]]
    # count() must not trust the now-stale index size for this segment
    assert ledger.count() == 1
    # appends continue cleanly after the torn line
    after = ledger.append(_bench_record())
    assert [r["run_id"] for r in ledger.records()] == [kept["run_id"], after["run_id"]]


def test_get_by_prefix_and_ambiguity(tmp_path):
    ledger = RunLedger(tmp_path / LEDGER_DIRNAME)
    record = ledger.append(_bench_record())
    assert ledger.get(record["run_id"][:6])["run_id"] == record["run_id"]
    with pytest.raises(KeyError):
        ledger.get("no-such-run")


def test_concurrent_segments_merge_in_time_order(tmp_path):
    """Records from several writer pids interleave by timestamp on read."""
    directory = tmp_path / LEDGER_DIRNAME
    ledger = RunLedger(directory)
    ledger.append(_bench_record(ts=2.0))
    foreign = directory / "segment-424242.jsonl"
    foreign.write_text(
        json.dumps(_bench_record(ts=1.0, run_id="aaa", pid=424242, regressions=[])) + "\n"
        + json.dumps(_bench_record(ts=3.0, run_id="bbb", pid=424242, regressions=[])) + "\n"
    )
    ts_order = [r["ts"] for r in ledger.records()]
    assert ts_order == sorted(ts_order)
    assert ledger.count() == 3


# -- automatic appends ------------------------------------------------------


def test_run_matrix_appends_one_record_per_run(tmp_path):
    cache_dir = tmp_path / "cache"
    for expected in (1, 2):
        runner = _runner(cache_dir)
        runner.run_matrix(WORKLOADS, CONFIGS)
        assert runner.ledger_appends == 1
        ledger = RunLedger(cache_dir / LEDGER_DIRNAME)
        assert ledger.count() == expected

    records = ledger.records()
    cold, warm = records[0], records[1]
    # identical matrices, identical outputs across the cold/warm pair
    assert cold["matrix_digest"] == warm["matrix_digest"]
    assert cold["result_digest"] == warm["result_digest"]
    assert cold["cache_hit_rate"] == 0.0
    assert warm["cache_hit_rate"] == 1.0
    # a fully cached replay must not report (or baseline) a throughput
    assert cold["branches_per_sec"] > 0
    assert warm["branches_per_sec"] == 0.0
    assert not cold["regressions"] and not warm["regressions"]
    assert cold["report"]["totals"]["simulated"] == len(WORKLOADS) * len(CONFIGS)
    assert "counters" in cold["metrics"]


def test_no_cache_means_no_ledger(tmp_path):
    runner = Runner(RunnerConfig(scale=SCALE, num_branches=BRANCHES))
    assert runner.ledger is None
    runner.run_matrix(WORKLOADS, ["tsl_8k"])
    assert runner.ledger_appends == 0


def test_session_fallback_covers_run_cells_harnesses(tmp_path):
    """Harnesses driving run_cells directly still get one session record."""
    cache_dir = tmp_path / "cache"
    runner = _runner(cache_dir)
    runner.run_cells([(WORKLOADS[0], name, {}) for name in CONFIGS])
    assert runner.ledger_appends == 0  # run_cells itself never appends
    runner.ledger_append_session(1.5, 0.5, context={"command": "report"})
    assert runner.ledger_appends == 1
    record = RunLedger(cache_dir / LEDGER_DIRNAME).records()[0]
    assert record["cells"] == len(CONFIGS)
    assert record["context"]["command"] == "report"
    # a second call is a no-op: the session is already recorded
    runner.ledger_append_session(1.5, 0.5)
    assert runner.ledger_appends == 1


def test_session_fallback_digest_is_deterministic(tmp_path):
    digests = []
    for sub in ("a", "b"):
        runner = _runner(tmp_path / sub)
        runner.run_cells([(WORKLOADS[0], name, {}) for name in CONFIGS])
        runner.ledger_append_session(1.0, 1.0)
        record = RunLedger(tmp_path / sub / LEDGER_DIRNAME).records()[0]
        digests.append((record["matrix_digest"], record["result_digest"]))
    assert digests[0] == digests[1]


# -- regression watchdog ----------------------------------------------------


def test_first_run_establishes_baseline_silently(tmp_path):
    flags = check_and_update(tmp_path, _bench_record())
    assert flags == []
    baselines = load_baselines(tmp_path)
    assert len(baselines) == 1


def test_check_happens_before_update(tmp_path):
    """A regressed run is flagged against PRE-regression history, exactly once
    -- it must not be folded into its own comparison baseline first."""
    check_and_update(tmp_path, _bench_record())
    slow = _bench_record(branches_per_sec=40_000.0)  # 60% drop
    flags = check_and_update(tmp_path, slow)
    assert [f["kind"] for f in flags] == ["throughput"]
    assert slow["regressions"] == flags  # persisted inside the record
    key = baseline_key(slow)
    folded = load_baselines(tmp_path)[key]
    # the slow run WAS folded in afterwards (EMA moved down)
    assert folded["branches_per_sec"] < 100_000.0
    assert folded["runs"] == 2


def test_digest_flip_is_correctness_alarm_and_one_shot(tmp_path):
    check_and_update(tmp_path, _bench_record())
    flipped = _bench_record(result_digest="f" * 16)
    flags = check_and_update(tmp_path, flipped)
    assert [(f["kind"], f["severity"]) for f in flags] == [("result_digest", "correctness")]
    # the baseline adopts the new digest: an identical re-run is clean
    again = _bench_record(result_digest="f" * 16)
    assert check_and_update(tmp_path, again) == []
    # ...but the historical flag stays in the flipped record itself
    assert flipped["regressions"]


def test_identical_rerun_is_clean(tmp_path):
    check_and_update(tmp_path, _bench_record())
    assert check_and_update(tmp_path, _bench_record()) == []


def test_hit_rate_flag(tmp_path):
    check_and_update(tmp_path, _bench_record(cache_hit_rate=1.0))
    bad = _bench_record(cache_hit_rate=0.25, branches_per_sec=0.0)
    kinds = {f["kind"] for f in check_and_update(tmp_path, bad)}
    assert kinds == {"cache_hit_rate"}


def test_records_and_baselines_with_retries_check_clean(tmp_path):
    """History written while runs still counted retries reads and checks clean."""
    old = _bench_record(retries=0)
    baseline = update_baseline(None, old)
    baseline["retries"] = 0.0
    save_baselines(tmp_path, {baseline_key(old): baseline})
    ledger = RunLedger(tmp_path)
    ledger.append(dict(old))
    assert [record["retries"] for record in ledger.records()] == [0]
    # a retry spike in an old-format record is no longer a regression
    assert check_and_update(tmp_path, _bench_record(retries=9)) == []
    assert "retries" not in load_baselines(tmp_path)[baseline_key(old)]


def test_cached_replay_never_distorts_throughput_baseline(tmp_path):
    check_and_update(tmp_path, _bench_record(branches_per_sec=100_000.0))
    replay = _bench_record(branches_per_sec=0.0)  # warm cache, nothing simulated
    assert check_and_update(tmp_path, replay) == []
    key = baseline_key(replay)
    assert load_baselines(tmp_path)[key]["branches_per_sec"] == 100_000.0


def test_cached_report_gates_throughput_check():
    """A record whose report says simulated=0 is never a throughput flag."""
    baseline = update_baseline(None, _bench_record())
    replayed = _bench_record(
        branches_per_sec=1.0, report={"totals": {"simulated": 0}}
    )
    assert check_record(replayed, baseline) == []


def test_baselines_tolerate_corruption(tmp_path):
    (tmp_path / BASELINES_FILENAME).write_text("{not json")
    assert load_baselines(tmp_path) == {}
    assert check_and_update(tmp_path, _bench_record()) == []


def test_watchdog_failure_never_breaks_the_run(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    runner = _runner(cache_dir)
    import repro.obs.ledger as ledger_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic ledger failure")

    monkeypatch.setattr(ledger_mod, "build_run_record", boom)
    table = runner.run_matrix(WORKLOADS, ["tsl_8k"])  # must not raise
    assert table[WORKLOADS[0]]["tsl_8k"].mpki >= 0
    assert runner.ledger_appends == 0


# -- digests ----------------------------------------------------------------


def test_digest_helpers_are_order_insensitive_and_stable():
    assert matrix_digest(["b", "a"]) == matrix_digest(["a", "b"])
    assert matrix_digest(["a"]) != matrix_digest(["a", "b"])
    one = result_digest([{"x": 1, "y": 2}])
    assert one == result_digest([{"y": 2, "x": 1}])
    assert one != result_digest([{"x": 1, "y": 3}])


def test_run_record_carries_full_context(tmp_path):
    runner = _runner(tmp_path / "cache")
    cells = [(WORKLOADS[0], name, {}) for name in CONFIGS]
    results = runner.run_cells(cells)
    record = build_run_record(runner, cells, results, 2.0, 1.0, source="api", context={"k": "v"})
    assert record["source"] == "api"
    assert record["context"] == {"k": "v"}
    assert record["workloads"] == WORKLOADS
    assert record["configs"] == CONFIGS
    assert record["branches"] == len(cells) * BRANCHES
    assert record["report"]["totals"]["cells"] == len(cells)


# -- Prometheus exposition --------------------------------------------------


def test_prometheus_format_validity():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(3)
    registry.gauge("jobs.queue_depth").set(2.0)
    registry.gauge('jobs.tenant{tenant="alice",state="queued"}').set(1.0)
    registry.histogram("jobs.wait.seconds").observe(0.004)
    registry.histogram("jobs.wait.seconds").observe(70.0)
    text = to_prometheus(registry.snapshot())

    assert text.endswith("\n")
    assert "# TYPE repro_cache_hits counter\nrepro_cache_hits 3\n" in text
    assert "repro_jobs_queue_depth 2\n" in text
    assert 'repro_jobs_tenant{tenant="alice",state="queued"} 1\n' in text

    buckets = []
    for line in text.splitlines():
        assert not line.startswith("#") or line.startswith("# TYPE"), line
        if line.startswith("repro_jobs_wait_seconds_bucket"):
            buckets.append(int(line.rsplit(" ", 1)[1]))
    # cumulative and monotone, +Inf bucket equals the observation count
    assert buckets == sorted(buckets)
    assert 'le="+Inf"} 2' in text
    assert "repro_jobs_wait_seconds_count 2" in text
    # metric names are prometheus-legal
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name = line.split("{")[0].split(" ")[0]
        assert name.replace("_", "").replace(":", "").isalnum(), name


# -- telemetry compaction ---------------------------------------------------


def test_compact_merges_dead_pids_and_spares_live_ones(tmp_path):
    dead = 999_999_999 % 4_194_304  # synthetic, certainly-dead pid
    (tmp_path / f"events-{dead}.jsonl").write_text(
        json.dumps({"ts": 1.0, "event": "dead-evt", "seq": 1}) + "\n"
    )
    (tmp_path / f"metrics-{dead}.json").write_text(
        json.dumps({"counters": {"a": 1.0}, "gauges": {}, "histograms": {}})
    )
    live = tmp_path / f"events-{os.getpid()}.jsonl"
    live.write_text(json.dumps({"ts": 2.0, "event": "live-evt"}) + "\n")

    stats = compact_events(tmp_path)
    assert stats == {"event_files": 1, "events": 1, "metrics_files": 1}
    assert live.exists()
    assert not (tmp_path / f"events-{dead}.jsonl").exists()

    from repro.obs.events import read_events
    from repro.obs.telemetry import merged_metrics

    events = read_events(tmp_path)
    assert {e["event"] for e in events} == {"dead-evt", "live-evt"}
    assert merged_metrics(tmp_path)["counters"]["a"] == 1.0

    # idempotent: merged segments are never re-compacted
    again = compact_events(tmp_path)
    assert again["event_files"] == 0 and again["metrics_files"] == 0
    assert merged_metrics(tmp_path)["counters"]["a"] == 1.0


# -- CLI --------------------------------------------------------------------


@pytest.fixture()
def two_run_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    for _ in range(2):
        argv = [
            "run", "--workload", WORKLOADS[0], "--config", CONFIGS[0], "--config", CONFIGS[1],
            "--branches", str(BRANCHES), "--scale", str(SCALE), "--cache-dir", str(cache_dir),
        ]
        assert cli_main(argv) == 0
    return cache_dir


def test_cli_history_list_and_json(two_run_cache, capsys):
    assert cli_main(["history", "list", "--cache-dir", str(two_run_cache)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2

    assert cli_main(["history", "list", "--cache-dir", str(two_run_cache), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2
    assert records[0]["source"] == "cli"
    assert records[0]["matrix_digest"] == records[1]["matrix_digest"]
    assert records[0]["result_digest"] == records[1]["result_digest"]


def test_cli_history_show_and_diff(two_run_cache, capsys):
    ledger = RunLedger(two_run_cache / LEDGER_DIRNAME)
    run_id = ledger.records()[0]["run_id"]
    assert cli_main(["history", "show", run_id[:6], "--cache-dir", str(two_run_cache)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["run_id"] == run_id

    assert cli_main(["history", "diff", "--cache-dir", str(two_run_cache)]) == 0
    out = capsys.readouterr().out
    assert "identical matrix, identical results" in out
    assert "result_digest" in out


def test_cli_history_regressions_clean_then_flagged(two_run_cache, capsys):
    assert cli_main(["history", "regressions", "--cache-dir", str(two_run_cache)]) == 0
    assert "no flagged runs" in capsys.readouterr().out

    # force a digest flip against the established baseline
    ledger = RunLedger(two_run_cache / LEDGER_DIRNAME)
    base = ledger.records()[0]
    flipped = {
        key: base[key]
        for key in (
            "source", "backend", "matrix_digest", "cells", "cache_hit_rate",
            "wall_seconds", "cpu_seconds", "branches_per_sec", "host",
        )
    }
    flipped["result_digest"] = "0badc0de0badc0de"
    ledger.prepare(flipped)
    check_and_update(ledger.directory, flipped)
    ledger.append(flipped)

    assert cli_main(["history", "regressions", "--cache-dir", str(two_run_cache)]) == 1
    out = capsys.readouterr().out
    assert "result_digest" in out


def test_cli_history_requires_a_ledger_location(capsys):
    with pytest.raises(SystemExit):
        cli_main(["history", "list"])


def test_cli_obs_compact(tmp_path, capsys):
    (tmp_path / "events-424242.jsonl").write_text(
        json.dumps({"ts": 1.0, "event": "x", "seq": 1}) + "\n"
    )
    assert cli_main(["obs-compact", str(tmp_path)]) == 0
    assert "compacted 1 event file(s)" in capsys.readouterr().out
    assert (tmp_path / "events-merged.jsonl").exists()

"""Tests for the ``repro.obs`` telemetry subsystem.

Covers the metrics primitives (counters, gauges, fixed-bucket
histograms, pull-collectors, cross-process merging), the crash-safe
JSONL event sink, span tracing, in-simulation sampling (including the
bit-identity guarantee with sampling enabled), the merged-run report
renderer, and — the integration contract — that a pool run whose worker
dies yields a merged telemetry directory whose counters hold exactly the
cells that finished.
"""

import gc
import json
import os

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.core import ResultCache, Runner, RunnerConfig
from repro.llbp import ContextStreams, LLBP, llbp_default
from repro.obs.metrics import reset_registry
from repro.obs.report import build_span_tree
from repro.tage import TageSCL, TraceTensors, tsl_64k
from repro.traces.workloads import generate_workload
from tests.conftest import TEST_SCALE

SMALL = RunnerConfig(scale=4, num_branches=3000)


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts and ends with no session and an empty registry."""
    obs.shutdown()
    reset_registry()
    yield
    obs.shutdown()
    reset_registry()


# -- metrics ---------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = obs.registry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        assert snap["pid"] == os.getpid()

    def test_registry_get_or_create_returns_same_instrument(self):
        reg = obs.registry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_histogram_percentiles(self):
        hist = obs.Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.mean == pytest.approx(105.5 / 5)
        assert hist.percentile(50) == 2.0  # 3rd of 5 lands in (1, 2]
        assert hist.percentile(99) == 100.0  # overflow bucket -> max seen
        assert obs.Histogram("e").percentile(50) == 0.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            obs.Histogram("h", bounds=(2.0, 1.0))

    def test_histogram_roundtrip(self):
        hist = obs.Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(9.0)
        clone = obs.Histogram.from_dict("h", hist.to_dict())
        assert clone.bounds == hist.bounds
        assert clone.counts == hist.counts
        assert clone.count == 2 and clone.max_seen == 9.0

    def test_collector_folds_into_counters(self):
        class Store:
            def stats(self):
                return {"hits": 3, "misses": 1}

        store = Store()
        reg = obs.registry()
        reg.register_collector("store", store.stats)
        snap = reg.snapshot()
        assert snap["counters"]["store.hits"] == 3.0
        assert snap["counters"]["store.misses"] == 1.0

    def test_dead_collector_pruned_not_polled(self):
        class Store:
            def stats(self):
                return {"hits": 1}

        store = Store()
        reg = obs.registry()
        reg.register_collector("store", store.stats)
        del store
        gc.collect()
        assert "store.hits" not in reg.snapshot()["counters"]

    def test_failing_collector_skipped(self):
        class Bad:
            def stats(self):
                raise RuntimeError("boom")

        bad = Bad()
        reg = obs.registry()
        reg.register_collector("bad", bad.stats)
        reg.counter("ok").inc()
        assert reg.snapshot()["counters"] == {"ok": 1.0}

    def test_merge_snapshots(self):
        hist = obs.Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        snap_a = {"pid": 1, "counters": {"c": 2.0}, "gauges": {"g": 1.0},
                  "histograms": {"h": hist.to_dict()}}
        snap_b = {"pid": 2, "counters": {"c": 3.0}, "gauges": {"g": 9.0},
                  "histograms": {"h": hist.to_dict()}}
        merged = obs.merge_snapshots([snap_a, snap_b])
        assert merged["pids"] == [1, 2]
        assert merged["counters"]["c"] == 5.0
        assert merged["gauges"]["g"] == 9.0  # last writer wins
        assert merged["histograms"]["h"]["count"] == 2


# -- events ----------------------------------------------------------------------


class TestEvents:
    def test_emit_and_read_roundtrip(self, tmp_path):
        sink = obs.EventSink(tmp_path)
        sink.emit("alpha", value=1)
        sink.emit("beta", value=2)
        sink.close()
        events = obs.read_events(tmp_path)
        assert [e["type"] for e in events] == ["alpha", "beta"]
        assert events[0]["pid"] == os.getpid()

    def test_read_filters_by_type(self, tmp_path):
        sink = obs.EventSink(tmp_path)
        sink.emit("alpha")
        sink.emit("beta")
        sink.close()
        assert [e["type"] for e in obs.read_events(tmp_path, "beta")] == ["beta"]

    def test_torn_tail_line_skipped(self, tmp_path):
        sink = obs.EventSink(tmp_path)
        sink.emit("alpha")
        sink.close()
        path = next(tmp_path.glob("events-*.jsonl"))
        with open(path, "a") as handle:
            handle.write('{"ts": 1.0, "type": "tru')  # SIGKILL mid-write
        events = obs.read_events(tmp_path)
        assert [e["type"] for e in events] == ["alpha"]

    def test_closed_sink_refuses_writes(self, tmp_path):
        sink = obs.EventSink(tmp_path)
        sink.close()
        sink.emit("alpha")  # silently dropped, no crash
        assert obs.read_events(tmp_path) == []


# -- spans -----------------------------------------------------------------------


class TestSpans:
    def test_span_without_session_is_a_noop(self):
        with obs.span("quiet", key="v"):
            pass  # must not raise, must not create files

    def test_nested_spans_link_parents(self, tmp_path):
        obs.configure(tmp_path)
        with obs.span("outer"):
            with obs.span("inner", detail=1):
                pass
        obs.shutdown()
        spans = obs.read_events(tmp_path, "span")
        by_name = {e["name"]: e for e in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["attrs"] == {"detail": 1}
        assert by_name["outer"]["wall_seconds"] >= by_name["inner"]["wall_seconds"]

    def test_span_records_duration_histogram(self, tmp_path):
        obs.configure(tmp_path)
        with obs.span("timed"):
            pass
        snap = obs.registry().snapshot()
        obs.shutdown()
        assert snap["histograms"]["span.timed.seconds"]["count"] == 1

    def test_build_span_tree_promotes_orphans(self):
        events = [
            {"type": "span", "span_id": "a", "parent_id": None, "name": "root",
             "ts_start": 1.0, "wall_seconds": 2.0, "cpu_seconds": 1.0},
            {"type": "span", "span_id": "b", "parent_id": "a", "name": "child",
             "ts_start": 1.5, "wall_seconds": 0.5, "cpu_seconds": 0.2},
            {"type": "span", "span_id": "c", "parent_id": "dead-worker", "name": "orphan",
             "ts_start": 3.0, "wall_seconds": 1.0, "cpu_seconds": 0.1},
        ]
        roots = build_span_tree(events)
        assert [r.name for r in roots] == ["root", "orphan"]
        assert [c.name for c in roots[0].children] == ["child"]
        assert roots[0].self_wall == pytest.approx(1.5)


# -- telemetry sessions ----------------------------------------------------------


class TestTelemetry:
    def test_configure_scopes_registry(self, tmp_path):
        obs.registry().counter("stale").inc(99)
        obs.configure(tmp_path)
        assert "stale" not in obs.registry().snapshot()["counters"]
        assert (tmp_path / "meta.json").exists()

    def test_flush_then_merge_reads_own_snapshot(self, tmp_path):
        obs.configure(tmp_path)
        obs.registry().counter("work").inc(4)
        obs.flush()
        merged = obs.merged_metrics(tmp_path, include_local=False)
        assert merged["counters"]["work"] == 4.0
        assert merged["pids"] == [os.getpid()]

    def test_live_registry_supersedes_own_stale_file(self, tmp_path):
        obs.configure(tmp_path)
        obs.registry().counter("work").inc(1)
        obs.flush()
        obs.registry().counter("work").inc(1)  # not yet flushed
        merged = obs.merged_metrics(tmp_path)  # include_local=True
        assert merged["counters"]["work"] == 2.0

    def test_emit_event_disabled_is_free(self):
        obs.emit_event("ignored", key=1)  # no session: must be a no-op
        assert not obs.enabled()

    def test_worker_config_roundtrip(self, tmp_path):
        assert obs.worker_config() is None
        obs.configure(tmp_path, sample_interval=500)
        assert obs.worker_config() == (str(tmp_path), 500)

    def test_ensure_reuses_same_directory_session(self, tmp_path):
        session = obs.configure(tmp_path)
        assert obs.ensure(tmp_path) is session


# -- sampling --------------------------------------------------------------------


class TestSampling:
    @pytest.fixture(scope="class")
    def bundle(self):
        trace = generate_workload("kafka", num_branches=2000, use_cache=False)
        tensors = TraceTensors(trace)
        return trace, tensors, ContextStreams(tensors)

    def test_no_session_leaves_step_unwrapped(self, bundle):
        _, tensors, _ = bundle
        predictor = TageSCL(tsl_64k(scale=TEST_SCALE), tensors)
        assert obs.active_sampler() is None
        assert "sampled" not in predictor.step.__name__

    def test_session_without_interval_leaves_step_unwrapped(self, tmp_path, bundle):
        _, tensors, _ = bundle
        obs.configure(tmp_path, sample_interval=0)
        predictor = TageSCL(tsl_64k(scale=TEST_SCALE), tensors)
        assert obs.active_sampler() is None
        assert "sampled" not in predictor.step.__name__

    def test_sampler_rejects_nonpositive_interval(self, tmp_path):
        session = obs.configure(tmp_path)
        with pytest.raises(ValueError):
            obs.Sampler(0, session)

    def test_sampling_preserves_bit_identity(self, tmp_path, bundle):
        from repro.core.simulator import simulate

        trace, tensors, contexts = bundle
        baseline = simulate(
            LLBP(llbp_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts),
            trace, tensors, use_step=True,
        )
        obs.configure(tmp_path, sample_interval=250)
        predictor = LLBP(
            llbp_default(scale=TEST_SCALE), tsl_64k(scale=TEST_SCALE), tensors, contexts
        )
        assert "sampled" in predictor.step.__name__
        sampled = simulate(predictor, trace, tensors, use_step=True)
        snap = obs.registry().snapshot()
        obs.shutdown()

        assert sampled.mispredictions == baseline.mispredictions
        assert sampled.stats == baseline.stats
        assert sampled.extra == baseline.extra

        samples = obs.read_events(tmp_path, "sample")
        # only *conditional* branches flow through the fused step kernel,
        # so expect fewer than 2000/250 samples -- but at least a couple
        assert len(samples) >= 2
        values = samples[-1]["values"]
        assert "pb.hit_rate" in values and "tage.occupancy" in values
        assert any(name.startswith("predictor.llbp.") for name in snap["gauges"])

    def test_sample_fn_errors_do_not_kill_simulation(self, tmp_path):
        obs.configure(tmp_path, sample_interval=2)
        sampler = obs.active_sampler()

        def bad_sample():
            raise RuntimeError("probe failed")

        step = sampler.instrument("p", lambda t, pc, taken: 7, bad_sample)
        assert [step(i, 0, 1) for i in range(6)] == [7] * 6


# -- report rendering ------------------------------------------------------------


class TestReport:
    def _make_run(self, tmp_path):
        obs.configure(tmp_path)
        with obs.span("run_cells", jobs=1):
            with obs.span("simulate", workload="kafka"):
                pass
        obs.registry().counter("runner.simulations").inc()
        obs.emit_event("cell-success", workload="kafka", config="llbp", seconds=0.5)
        obs.emit_event("cell-success", workload="nodeapp", config="llbp", seconds=0.5)
        obs.shutdown()

    def test_render_report_contains_all_sections(self, tmp_path):
        self._make_run(tmp_path)
        text = obs.render_report(tmp_path)
        assert "span tree" in text
        assert "simulate workload=kafka" in text
        assert "runner.simulations" in text

    def test_empty_directory_renders(self, tmp_path):
        text = obs.render_report(tmp_path)
        assert "(no spans recorded)" in text
        assert "top counters:\n  (none)" in text

    def test_load_run_lists_pids(self, tmp_path):
        self._make_run(tmp_path)
        run = obs.load_run(tmp_path)
        assert run["pids"] == [os.getpid()]
        assert len(run["spans"]) == 1  # run_cells root with simulate child


# -- integration: a dead worker's counters -------------------------------------


class TestCrashMergeIntegration:
    def test_dead_worker_contributes_only_finished_cells(self, tmp_path, doom_task):
        # two shared-base groups: kafka's and nodeapp's tsl_64k + llbp
        cells = [(w, c, {}) for w in ("kafka", "nodeapp") for c in ("tsl_64k", "llbp")]
        # kafka's worker dies once nodeapp's two cells are cached; its
        # per-task flush never ran, so it contributes no counts at all
        doom_task("die", "kafka", tmp_path / "cache", finished=2)
        obs.configure(tmp_path / "telemetry")
        runner = Runner(SMALL, cache=ResultCache(tmp_path / "cache"))
        with pytest.raises(BrokenProcessPool):
            runner.run_cells(cells, jobs=2)
        obs.shutdown()
        merged = obs.merged_metrics(tmp_path / "telemetry", include_local=False)

        finished = [cell for cell in runner.report.cells() if cell.source == "simulated"]
        assert {cell.workload for cell in finished} == {"nodeapp"}
        assert len(finished) == runner.sim_count == 2
        assert merged["counters"]["runner.simulations"] == 2
        assert merged["counters"]["runner.branches"] == 2 * SMALL.num_branches

    def test_metrics_files_are_per_pid(self, tmp_path):
        obs.configure(tmp_path)
        Runner(SMALL).run_matrix(["kafka"], ["tsl_16k"], jobs=1)
        obs.shutdown()
        files = list(tmp_path.glob("metrics-*.json"))
        assert files
        for path in files:
            snap = json.loads(path.read_text())
            assert str(snap["pid"]) in path.name

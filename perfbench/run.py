"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix_cold --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  A run sets the workload up several
times (``setup_s`` is the median), then runs timed passes until
``--seconds`` is spent, checks every pass's outputs against
``perfbench/expected.json``, prints a run record line, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench-scratch"
#: set-up rounds per run; setup_s is their median
SETUP_ROUNDS = 3
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

if TYPE_CHECKING:
    from workloads import PassResult


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux 4.0+).

    Where the kernel does not allow it, the peak stays the process's
    lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def own_peak_rss_mb() -> float:
    """This process's peak RSS in MiB since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process (pool workers included) to end."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.005)


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check(outputs: Dict[str, str], want: Dict[str, str]) -> tuple:
    """(attempted, failed) of one pass's outputs against the expectation."""
    keys = set(want) | set(outputs)
    return len(keys), sum(1 for key in keys if outputs.get(key) != want.get(key))


class Pass(NamedTuple):
    traced: bool
    wall: float
    cpu: float
    #: peak RSS in MiB of this process or a child during the pass
    peak_rss_mb: float
    result: "PassResult"
    #: the pass's spans when traced, else None
    spans: Optional[List[dict]]


def timed_pass(workload, state, directory: Path, tracer) -> Pass:
    ctx = workload.prepare(state, directory)
    if tracer is not None:
        tracer.install()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    reset_peak_rss()
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    try:
        raw = workload.execute(ctx, tracer)
        reap_children()
    finally:
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        peak = own_peak_rss_mb()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.collect() if tracer is not None else None
    result = workload.finish(ctx, raw)
    if result.child_peak_rss_mb is not None:
        peak = max(peak, result.child_peak_rss_mb)
    elif children.ru_utime + children.ru_stime > children_before.ru_utime + children_before.ru_stime:
        # pool workers: the kernel keeps one high-water mark over every
        # reaped child; before the passes those are only import probes,
        # which are smaller than a worker forked from this process
        peak = max(peak, children.ru_maxrss / 1024.0)
    return Pass(tracer is not None, wall, cpu, peak, result, spans)


def set_up(workload, seed, scratch: Path) -> tuple:
    """Run the set-up SETUP_ROUNDS times; keep the last state.

    One untimed import first fills the run's bytecode cache, which an
    installed package has before its first run.
    """
    from workloads import import_probe

    import_probe()
    times = []
    state = None
    for round_index in range(SETUP_ROUNDS):
        if state is not None:
            shutil.rmtree(state["directory"], ignore_errors=True)
        directory = scratch / ("setup-%d" % round_index)
        directory.mkdir()
        start = time.perf_counter()
        state = workload.setup(directory, seed)
        times.append(time.perf_counter() - start)
        state["directory"] = directory
        reap_children()
    return state, times


def end_to_end(untraced: List[Pass], setup_times: List[float]) -> tuple:
    """The end-to-end metrics, and how many latency samples each percentile rests on.

    A pass with per-cell latencies gives one p50/p90 estimate per pass and
    the metric is their median, so one slow pass cannot move it; a pass
    without (one CLI call) is itself one latency sample.
    """
    walls = [p.wall for p in untraced]
    wall = statistics.median(walls)
    if untraced[0].result.latencies is None:
        p50, p90, samples = statistics.median(walls), percentile(walls, 90), len(walls)
    else:
        p50 = statistics.median(statistics.median(p.result.latencies) for p in untraced)
        p90 = statistics.median(percentile(p.result.latencies, 90) for p in untraced)
        samples = len(untraced[0].result.latencies)
    return {
        "wall_s": wall,
        "branches_per_s": untraced[-1].result.branches / wall,
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(p.peak_rss_mb for p in untraced),
        "p50_s": p50,
        "p90_s": p90,
        "paper_gap_pp": statistics.median(p.result.paper_gap_pp for p in untraced),
    }, samples


def per_layer(untraced: List[Pass], traced: List[Pass], main_pid: int) -> Dict[str, float]:
    from tracer import layer_metrics

    rows = []
    for p in traced:
        row = {
            "artifacts.store_mb": 0.0,
            "ledger.segments": 0.0,
            "parallel.retries": 0.0,
        }
        row.update(layer_metrics(p.spans, main_pid, p.wall))
        row.update({k: v for k, v in p.result.extra.items() if k in row})
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    return metrics


def run_benchmark(
    name: str,
    bench_seed: int,
    seconds: float,
    trace: bool,
    expected: Dict[str, object],
    branches: Optional[int] = None,
) -> tuple:
    """One benchmark run; returns ``(run record, result object)``."""
    from repro.core.parallel import effective_jobs
    from tracer import CLOSURE_FLOOR, Tracer
    from workloads import WORKLOADS, workload_seed

    workload = WORKLOADS[name](branches)
    seed = workload_seed(bench_seed)
    label = workload.label(seed)
    if expected["branches"][name] != workload.branches:
        raise SystemExit(
            "expected.json was recorded at %s branches for %s, not %d; "
            "rerun perfbench/record_expected.py" % (expected["branches"][name], name, workload.branches)
        )
    want = expected["workloads"][name][label]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    # child interpreters cache bytecode in the run's scratch, whatever
    # the caller's environment says, so CLI and import timings do not
    # depend on it and nothing is written next to the sources
    saved_env = {key: os.environ.get(key) for key in BYTECODE_ENV}
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    try:
        state, setup_times = set_up(workload, seed, scratch)
        tracer = Tracer(scratch / "spool") if trace else None
        passes: List[Pass] = []
        attempted = failed = 0
        errors: List[str] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            try:
                done = timed_pass(
                    workload, state, scratch / ("pass-%d" % len(passes)), tracer if traced else None
                )
            except Exception as exc:  # noqa: BLE001 - a failing program is a result
                attempted += len(want)
                failed += len(want)
                errors.append(repr(exc))
                break
            tried, bad = check(done.result.outputs, want)
            attempted += tried
            failed += bad
            passes.append(done)
            enough = len(passes) >= (2 if trace else workload.min_passes)
            if enough and time.perf_counter() + done.wall > deadline:
                break
        untraced = [p for p in passes if not p.traced]
        traced_passes = [p for p in passes if p.traced]
        if not untraced or (trace and not traced_passes):
            raise RuntimeError("no pass completed: %s" % "; ".join(errors))
        e2e, samples = end_to_end(untraced, setup_times)
        layers = per_layer(untraced, traced_passes, os.getpid()) if trace else None
        if trace:
            # the closure check is one more checked output of a traced run
            attempted += 1
            failed += int(layers["trace.closure_ratio"] < CLOSURE_FLOOR)
        record = {
            "workload": name,
            "bench_seed": bench_seed,
            "workload_seed": seed,
            "expectation": label,
            "branches": workload.branches,
            "scale": workload.config(seed).scale,
            "warmup_fraction": workload.config(seed).warmup_fraction,
            "jobs": workload.jobs,
            "jobs_used": effective_jobs(workload.jobs),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "platform": platform.platform(),
            "passes": len(untraced),
            "traced_passes": len(traced_passes),
            "pass_walls": [p.wall for p in untraced],
            "setup_times": setup_times,
            "latency_samples": samples,
            "failed_ratio": failed / attempted if attempted else 0.0,
            "errors": errors,
            "end_to_end": e2e,
        }
        if trace:
            record["per_layer"] = layers
            record["closure_ok"] = layers["trace.closure_ratio"] >= CLOSURE_FLOOR
            record["traced_outputs_match"] = all(
                p.result.outputs == untraced[0].result.outputs for p in traced_passes
            )
        measured = record["per_layer"] if trace else e2e
        spec = json.loads(BENCHMARK_JSON.read_text())["per_layer" if trace else "end_to_end"]
        return record, {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec},
        }
    finally:
        reap_children()
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch is still there


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test must be importable
        from workloads import REPRO_ENV_KNOBS, WORKLOADS

        expected = json.loads(EXPECTED_JSON.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print("perfbench: cannot start: %r" % exc, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; known: %s" % (args.workload, ", ".join(WORKLOADS)))
    for knob in REPRO_ENV_KNOBS:
        os.environ.pop(knob, None)
    record, result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), expected
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

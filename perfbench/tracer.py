"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each ``repro`` layer from
outside the program: it replaces module and class attributes with
wrappers that record one span per call (name, start, end, parent, pid,
attributes) and restores the originals on :meth:`Tracer.uninstall`.
Spans stay in memory; forked pool workers append theirs to a spool file
whenever their outermost span closes (the pool terminates its workers,
so nothing may wait for their exit), and :meth:`Tracer.collect` merges
both at the end of a pass.

:func:`layer_metrics` reduces one pass's spans to the per-layer metrics
listed in ``perfbench/README.md``.  A span's *self time* is its duration
minus the durations of its children in the same process.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: report name -> the harness entry points that regenerate it
HARNESSES = {
    "table1": ("run_table1",),
    "table2": ("format_table2",),
    "fig01": ("run_fig01",),
    "fig04": ("run_fig04",),
    "fig05": ("run_fig05",),
    "fig06": ("run_fig06_07",),
    "fig08": ("run_fig08",),
    "fig09": ("run_fig09",),
    "fig12": ("run_fig12",),
    "fig13": ("run_fig13",),
    "fig14a": ("run_fig14a",),
    "fig14b": ("run_fig14b",),
    "fig15": ("run_fig15",),
    "fig16": ("run_fig16a", "run_fig16b"),
    "sec7e": ("run_breakdown",),
    "sec7f": ("run_hth_sweep", "run_ctt_sweep"),
}

#: simulator throughput families, keyed by predictor name
FAMILIES = ("tsl", "tsl_inf", "llbp", "llbpx", "llbpx_optw")

#: span names (or prefixes) that enclose a whole harness or CLI command.
#: Their self time is whatever no inner layer claims, so the closure
#: check leaves them out.
CATCH_ALL = ("experiments.", "cli.run")

#: the least share of a traced pass the named layers must account for
CLOSURE_FLOOR = 0.9


def is_catch_all(name: str) -> bool:
    return any(name == root or (root.endswith(".") and name.startswith(root)) for root in CATCH_ALL)


def family_of(predictor_name: str) -> str:
    if predictor_name == "tsl_inf":
        return "tsl_inf"
    if predictor_name.startswith("tsl_"):
        return "tsl"
    if predictor_name.startswith("llbpx"):
        return "llbpx"
    return "llbp"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pid", "attrs")

    def __init__(self, span_id: str, name: str, parent: Optional[str], pid: int) -> None:
        self.id = span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.pid = pid
        self.attrs: Dict[str, object] = {}

    def as_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.active = False
        self._main_pid = os.getpid()
        self._pid = self._main_pid
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._fork_parent: Optional[str] = None
        self._seq = 0
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        # a forked worker starts with no spans of its own; its root spans
        # hang under whatever span was open in the parent at fork time
        self._fork_parent = self._stack[-1].id if self._stack else None
        self._pid = os.getpid()
        self._spans = []
        self._stack = []

    def open(self, name: str) -> Span:
        self._seq += 1
        parent = self._stack[-1].id if self._stack else self._fork_parent
        span = Span("%d:%d" % (self._pid, self._seq), name, parent, self._pid)
        self._stack.append(span)
        self._spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # a generator span abandoned early may close out of order
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break
        if self._pid != self._main_pid and not self._stack:
            self._spool_out()

    def _spool_out(self) -> None:
        lines = "".join(json.dumps(span.as_dict()) + "\n" for span in self._spans)
        with open(self.spool / ("spans-%d.jsonl" % self._pid), "a") as handle:
            handle.write(lines)
        self._spans = []

    def collect(self) -> List[Dict[str, object]]:
        """Every span recorded since the last collect, workers' included."""
        spans = [span.as_dict() for span in self._spans]
        self._spans = []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    continue  # torn tail of a killed worker
            path.unlink()
        return spans

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``note(args, kwargs)`` runs before the call and returns
        ``after(result) -> attrs``, the span attributes to record.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                after = note(args, kwargs) if note is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(result))
                return result
            finally:
                tracer.close(span)

        return traced

    def wrap_generator(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Like :meth:`wrap` for a generator function: the span covers iteration."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if note is not None:
                    span.attrs.update(note(args, kwargs)(None))
                yield from fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str, note: Optional[Callable] = None) -> None:
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], note))

    def patch_function(
        self, module: object, attr: str, name: str, note: Optional[Callable] = None
    ) -> None:
        """Wrap a module-level function at every ``repro`` binding of it.

        Modules that did ``from x import f`` hold their own reference, so
        each loaded ``repro`` module whose global is the original gets the
        wrapper; calls through a function-local import see the defining
        module's (patched) attribute.
        """
        original = getattr(module, attr)
        make = self.wrap_generator if inspect.isgeneratorfunction(original) else self.wrap
        wrapper = make(name, original, note)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "repro":
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        import repro.__main__ as cli
        import repro.core.batched as batched
        import repro.core.parallel as parallel
        import repro.core.simulator as simulator
        import repro.experiments as experiments
        import repro.llbp.batched_state as llbp_batched
        import repro.obs.regress as regress
        import repro.traces.workloads as workloads
        from repro.core.artifacts import ArtifactStore
        from repro.core.results_io import ResultCache
        from repro.core.runner import Runner
        from repro.llbp.rcr import ContextStreams
        from repro.obs.ledger import RunLedger
        from repro.tage.batched_state import SharedBase
        from repro.tage.streams import TraceTensors

        self.patch_function(workloads, "generate_workload", "traces.generate")
        self.patch_method(TraceTensors, "__init__", "streams.tensors")
        self.patch_method(ContextStreams, "__init__", "streams.contexts")
        self.patch_method(Runner, "bundle", "runner.bundle", note=_bundle_outcome)
        self.patch_method(Runner, "build_predictor", "runner.build_predictor")
        self.patch_method(ArtifactStore, "load_bundle", "artifacts.bundle_load", note=_hit)
        self.patch_method(ArtifactStore, "save_bundle", "artifacts.bundle_save")
        self.patch_method(ArtifactStore, "load_base_stream", "artifacts.base_load")
        self.patch_method(ArtifactStore, "save_base_stream", "artifacts.base_save")
        self.patch_function(batched, "plan_batches", "batched.plan", note=_fallbacks)
        self.patch_function(batched, "run_group", "batched.group", note=_lanes)
        self.patch_method(SharedBase, "__init__", "batched.base_build")
        self.patch_method(SharedBase, "record", "batched.base_record")
        self.patch_method(SharedBase, "adopt_stream", "batched.base_adopt")
        self.patch_method(SharedBase, "build_tsl_tail", "batched.tail_build")
        self.patch_function(llbp_batched, "build_llbp_tail", "batched.tail_build")
        self.patch_function(simulator, "simulate", "simulator.simulate", note=_simulated)
        self.patch_method(ResultCache, "get", "results_io.get", note=_hit)
        self.patch_method(ResultCache, "put", "results_io.put")
        self.patch_function(parallel, "run_cells_parallel", "parallel.dispatch", note=_jobs)
        self.patch_function(parallel, "simulate_task", "parallel.task")
        self.patch_method(RunLedger, "append", "ledger.append")
        self.patch_function(regress, "check_and_update", "ledger.check")
        for report, entries in HARNESSES.items():
            for entry in entries:
                self.patch_function(experiments, entry, "experiments." + report)
        self.patch_function(cli, "main", "cli.run")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- span attribute hooks: note(args, kwargs) -> after(result) -> attrs ----------


def _hit(args, kwargs):
    return lambda result: {"hit": result is not None}


def _bundle_outcome(args, kwargs):
    runner = args[0]
    before = (runner.bundle_builds, runner.bundle_loads)

    def after(result):
        if runner.bundle_builds > before[0]:
            return {"outcome": "build"}
        if runner.bundle_loads > before[1]:
            return {"outcome": "load"}
        return {"outcome": "memo"}

    return after


def _fallbacks(args, kwargs):
    return lambda plan: {"fallbacks": plan.fallbacks}


def _lanes(args, kwargs):
    cells = kwargs["cells"] if "cells" in kwargs else args[2]
    return lambda result: {"lanes": len(cells)}


def _jobs(args, kwargs):
    jobs = kwargs["jobs"] if "jobs" in kwargs else args[2]
    return lambda result: {"jobs": jobs}


def _simulated(args, kwargs):
    predictor = args[0]
    trace = kwargs["trace"] if "trace" in kwargs else args[1]
    # Opt-W cells run three LLBP-X simulations from Runner._run_optw;
    # sys._getframe(2) is the wrapper's caller
    caller = sys._getframe(2).f_code.co_name
    family = "llbpx_optw" if caller == "_run_optw" else family_of(predictor.name)
    return lambda result: {"branches": len(trace), "family": family}


# -- reduction to per-layer metrics -------------------------------------------------


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Span id -> the span's duration minus its same-process children's."""
    child_time: Dict[str, float] = {}
    for span in spans:
        parent = span["parent"]
        # only same-process children subtract: a worker's spans run
        # concurrently with the parent's dispatch span, not inside it
        if parent is not None and str(parent).split(":")[0] == str(span["pid"]):
            child_time[parent] = child_time.get(parent, 0.0) + span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - child_time.get(span["id"], 0.0) for span in spans
    }


def layer_metrics(
    spans: Sequence[Dict[str, object]], main_pid: int, wall: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for each name).

    ``trace.closure_ratio`` is the share of the pass's wall time that the
    named inner layers account for (see :func:`closure_ratio`).
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def named(name):
        return [span for span in spans if span["name"] == name]

    def self_s(name):
        return float(sum(own[span["id"]] for span in named(name)))

    def count(name, **attrs):
        return float(
            sum(1 for span in named(name) if all(span["attrs"].get(k) == v for k, v in attrs.items()))
        )

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def under(span, name):
        parent = span["parent"]
        while parent is not None and parent in by_id:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    m: Dict[str, float] = {}
    m["traces.generate_s"] = self_s("traces.generate")
    m["traces.generate_calls"] = count("traces.generate")
    m["streams.tensors_s"] = self_s("streams.tensors")
    m["streams.contexts_s"] = self_s("streams.contexts")
    m["runner.bundle_s"] = self_s("runner.bundle")
    m["runner.bundle_builds"] = count("runner.bundle", outcome="build")
    m["runner.bundle_loads"] = count("runner.bundle", outcome="load")
    m["runner.build_predictor_s"] = self_s("runner.build_predictor")
    for kind in ("bundle_save", "bundle_load", "base_save", "base_load"):
        m["artifacts.%s_s" % kind] = self_s("artifacts." + kind)
    m["artifacts.bundle_hit_ratio"] = ratio(
        count("artifacts.bundle_load", hit=True), count("artifacts.bundle_load")
    )

    groups = named("batched.group")
    m["batched.groups"] = float(len(groups))
    m["batched.lanes"] = float(sum(span["attrs"].get("lanes", 0) for span in groups))
    m["batched.fallbacks"] = float(
        sum(span["attrs"].get("fallbacks", 0) for span in named("batched.plan"))
    )
    base_total = 0.0
    for kind in ("base_build", "base_record", "base_adopt"):
        m["batched.%s_s" % kind] = self_s("batched." + kind)
        base_total += sum(span["end"] - span["start"] for span in named("batched." + kind))
    m["batched.tail_build_s"] = self_s("batched.tail_build")
    m["batched.base_share"] = ratio(
        base_total, sum(span["end"] - span["start"] for span in groups)
    )

    simulations = named("simulator.simulate")
    tails = {span["id"] for span in simulations if under(span, "batched.group")}
    m["simulator.reference_s"] = float(sum(own[s["id"]] for s in simulations if s["id"] not in tails))
    m["simulator.tail_s"] = float(sum(own[s["id"]] for s in simulations if s["id"] in tails))
    for family in FAMILIES:
        members = [s for s in simulations if s["attrs"].get("family") == family]
        m["simulator.%s_branches_per_s" % family] = ratio(
            sum(s["attrs"]["branches"] for s in members), sum(own[s["id"]] for s in members)
        )

    m["results_io.get_s"] = self_s("results_io.get")
    m["results_io.put_s"] = self_s("results_io.put")
    m["results_io.hits"] = count("results_io.get", hit=True)
    m["results_io.misses"] = count("results_io.get", hit=False)
    m["results_io.hit_ratio"] = ratio(m["results_io.hits"], m["results_io.hits"] + m["results_io.misses"])

    dispatches = named("parallel.dispatch")
    tasks = named("parallel.task")
    m["parallel.wall_s"] = float(sum(span["end"] - span["start"] for span in dispatches))
    m["parallel.tasks"] = float(len(tasks))
    busy = 0.0
    bound = 0.0
    capacity = 0.0
    for dispatch in dispatches:
        inside = [
            span["end"] - span["start"]
            for span in tasks
            if dispatch["start"] <= span["start"] <= dispatch["end"]
        ]
        # the pool never starts more workers than the dispatch has tasks
        jobs = max(1, min(int(dispatch["attrs"].get("jobs", 1)), len(inside)))
        busy += sum(inside)
        capacity += jobs * (dispatch["end"] - dispatch["start"])
        if inside:
            bound += max(max(inside), sum(inside) / jobs)
    m["parallel.busy_ratio"] = ratio(busy, capacity)
    m["costmodel.makespan_ratio"] = ratio(m["parallel.wall_s"], bound)

    m["ledger.append_s"] = self_s("ledger.append")
    m["ledger.check_s"] = self_s("ledger.check")
    m["ledger.appends"] = count("ledger.append")
    for report in HARNESSES:
        m["experiments.%s_s" % report] = self_s("experiments." + report)
    m["cli.import_s"] = self_s("cli.import")
    m["cli.run_s"] = self_s("cli.run")

    m["trace.closure_ratio"] = closure_ratio(spans, own, main_pid, wall)
    return m


def closure_ratio(
    spans: Sequence[Dict[str, object]], own: Dict[str, float], main_pid: int, wall: float
) -> float:
    """Share of ``wall`` that the named inner layers account for.

    The main process counts the self time of every span except the
    catch-all roots (:data:`CATCH_ALL`) and the pool dispatch.  A dispatch
    mostly waits for its workers, so its self time counts at the rate the
    workers' inner spans cover their ``parallel.task`` spans.
    """
    covered = 0.0
    dispatch = 0.0
    task_time = 0.0
    worker_covered = 0.0
    for span in spans:
        name = str(span["name"])
        if span["pid"] == main_pid:
            if name == "parallel.dispatch":
                dispatch += own[span["id"]]
            elif not is_catch_all(name):
                covered += own[span["id"]]
        elif name == "parallel.task":
            task_time += span["end"] - span["start"]
        elif not is_catch_all(name):
            worker_covered += own[span["id"]]
    if dispatch:
        covered += dispatch * (worker_covered / task_time if task_time else 0.0)
    return covered / wall if wall else 0.0

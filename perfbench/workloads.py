"""The benchmark's four workloads.

Each workload has a set-up (run several times per benchmark run, the
last one kept), and a pass split into ``prepare`` (untimed: fresh temp
stores, cleared trace cache), ``execute`` (timed) and ``finish``
(untimed: output digests, store sizes, cleanup).  ``README.md`` in this
directory says why each workload exists and which layers it loads.

Everything the workloads write goes under the scratch directory the
caller passes in, inside the checkout; ``repro`` must be importable
(``run.py`` puts the checkout's ``src`` on ``sys.path``).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the paper's mean Fig 12 LLBP-X MPKI reduction vs the 64K TSL, in percent
PAPER_LLBPX_REDUCTION = 12.1
#: workload seed of odd ``--seed`` values; even ones use each profile's own
HELD_OUT_SEED = 1
#: every report ``repro report`` knows, in its CLI order
REPORTS = (
    "table1", "table2", "fig01", "fig04", "fig05", "fig06", "fig08", "fig09",
    "fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16", "sec7e", "sec7f",
)
MATRIX_PROFILES = ("kafka", "delta", "nodeapp", "merced")
MATRIX_CONFIGS = ("tsl_64k", "llbp", "llbpx")
SWEEP_PROFILES = ("kafka", "nodeapp", "whiskey")
#: what a fresh interpreter imports before any workload can start
IMPORT_PROBE = "import repro.experiments, repro.__main__"
#: environment knobs that would change the harnesses' default inputs
REPRO_ENV_KNOBS = ("REPRO_WORKLOADS", "REPRO_BRANCHES", "REPRO_FAULT_SPEC")


def workload_seed(bench_seed: int) -> Optional[int]:
    """``RunnerConfig.seed`` for a benchmark ``--seed`` (``None`` = defaults)."""
    return None if bench_seed % 2 == 0 else HELD_OUT_SEED


def seed_label(seed: Optional[int]) -> str:
    return "default" if seed is None else "held_out"


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in REPRO_ENV_KNOBS}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe() -> float:
    """Wall seconds of a fresh interpreter importing the ``repro`` entry points."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(), check=True, timeout=120
    )
    return time.perf_counter() - start


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of one result's counts, stats and extra."""
    from repro.core.results_io import result_to_dict

    return digest_text(json.dumps(result_to_dict(result), sort_keys=True))


def cell_key(workload: str, config: str, overrides=None) -> str:
    from repro.core.results_io import freeze_overrides

    frozen = freeze_overrides(overrides)
    return "%s|%s|%s" % (workload, config, repr(frozen) if frozen else "")


def llbpx_gap(pairs: Sequence[tuple]) -> float:
    """``paper_gap_pp`` of (tsl_64k result, llbpx result) pairs."""
    from repro.core import reduction

    reductions = [reduction(base, llbpx) for base, llbpx in pairs]
    return abs(sum(reductions) / len(reductions) - PAPER_LLBPX_REDUCTION)


def tree_mb(path: Path) -> float:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total / (1 << 20)


def ledger_segments(cache_dir: Path) -> float:
    from repro.obs.ledger import LEDGER_DIRNAME

    return float(len(list((cache_dir / LEDGER_DIRNAME).glob("segment-*.jsonl"))))


def simulated_seconds(runner) -> List[float]:
    return [cell.seconds for cell in runner.report.cells() if cell.source == "simulated"]


@dataclass
class PassResult:
    """What one pass produced, for checking and for the metrics."""

    #: checked output item -> digest
    outputs: Dict[str, str]
    #: trace length x cells the pass delivered
    branches: int
    #: per-cell seconds as the runner reports them; ``None`` = the pass wall
    latencies: Optional[List[float]]
    paper_gap_pp: float
    #: per-layer values measured outside spans
    extra: Dict[str, float] = field(default_factory=dict)
    #: peak RSS in MiB of the child the pass started and reaped itself;
    #: ``None`` when it started none (pool workers are measured by run.py)
    child_peak_rss_mb: Optional[float] = None


class Workload:
    name = ""
    branches = 0
    jobs = 1
    #: untraced passes a ``--trace 0`` run makes even past ``--seconds``,
    #: so every end-to-end metric is a median of at least this many
    min_passes = 3

    def __init__(self, branches: Optional[int] = None) -> None:
        if branches is not None:
            self.branches = branches

    def config(self, seed: Optional[int]):
        from repro.core import RunnerConfig

        return RunnerConfig(num_branches=self.branches, seed=seed)

    def label(self, seed: Optional[int]) -> str:
        return seed_label(seed)

    def setup(self, directory: Path, seed: Optional[int]) -> dict:
        import_probe()
        return {"seed": seed, "directory": directory}

    def prepare(self, state: dict, directory: Path) -> dict:
        from repro.traces.workloads import clear_trace_cache

        clear_trace_cache()
        directory.mkdir(parents=True)
        return dict(state, pass_dir=directory)

    def execute(self, ctx: dict, tracer=None):
        raise NotImplementedError

    def finish(self, ctx: dict, raw) -> PassResult:
        raise NotImplementedError


def _cell_outputs(runner, cells: Sequence[tuple]) -> Dict[str, str]:
    outputs = {}
    for workload, config, overrides in cells:
        result = runner.lookup_cached(workload, config, overrides)
        outputs["cell/" + cell_key(workload, config, overrides)] = (
            "missing" if result is None else result_digest(result)
        )
    return outputs


class PaperRegen(Workload):
    """Every ``repro report`` harness on its default set, one shared Runner."""

    name = "paper_regen"
    branches = 6000

    def __init__(self, branches: Optional[int] = None) -> None:
        super().__init__(branches)
        self.jobs = min(2, os.cpu_count() or 1)

    def execute(self, ctx: dict, tracer=None):
        from repro import experiments as ex
        from repro.core import Runner

        runner = Runner(self.config(ctx["seed"]), backend="auto")
        jobs = self.jobs
        nodeapp = "nodeapp"  # the CLI's default for the single-workload figures
        regenerate = {
            "table1": lambda: ex.format_table1(ex.run_table1(runner, None, jobs=jobs)),
            "table2": lambda: ex.format_table2(),
            "fig01": lambda: ex.format_fig01(ex.run_fig01(runner, None, jobs=jobs)),
            "fig04": lambda: ex.format_fig04(ex.run_fig04(runner, None, jobs=jobs)),
            "fig05": lambda: ex.format_fig05(ex.run_fig05(runner, None, jobs=jobs)),
            "fig06": lambda: ex.format_fig06_07(ex.run_fig06_07(runner, nodeapp)),
            "fig08": lambda: ex.format_fig08(ex.run_fig08(runner, nodeapp)),
            "fig09": lambda: ex.format_fig09(ex.run_fig09(runner, nodeapp)),
            "fig12": lambda: ex.format_fig12(ex.run_fig12(runner, None, jobs=jobs)),
            "fig13": lambda: ex.format_fig13(ex.run_fig13(runner, None, jobs=jobs)),
            "fig14a": lambda: ex.format_fig14a(ex.run_fig14a(runner, None, jobs=jobs)),
            "fig14b": lambda: ex.format_fig14b(ex.run_fig14b(runner, None, jobs=jobs)),
            "fig15": lambda: ex.format_fig15(ex.run_fig15(runner, None, jobs=jobs)),
            "fig16": lambda: ex.format_fig16(
                ex.run_fig16a(runner, None, jobs=jobs), ex.run_fig16b(runner, None, jobs=jobs)
            ),
            "sec7e": lambda: ex.format_breakdown(ex.run_breakdown(runner, None, jobs=jobs)),
            "sec7f": lambda: ex.format_sensitivity(
                ex.run_hth_sweep(runner, None, jobs=jobs), ex.run_ctt_sweep(runner, None, jobs=jobs)
            ),
        }
        return runner, {report: regenerate[report]() for report in REPORTS}

    def finish(self, ctx: dict, raw) -> PassResult:
        from repro.experiments import default_workloads

        runner, texts = raw
        outputs = {"report/" + report: digest_text(text) for report, text in texts.items()}
        cells = []
        for cell in runner.report.cells():
            overrides = dict(ast.literal_eval(cell.overrides)) if cell.overrides else {}
            cells.append((cell.workload, cell.config, overrides))
        outputs.update(_cell_outputs(runner, cells))
        fig12 = default_workloads("all")
        gap = llbpx_gap(
            [(runner.lookup_cached(w, "tsl_64k"), runner.lookup_cached(w, "llbpx")) for w in fig12]
        )
        extra = {"parallel.retries": float(runner.report.totals()["retries"])}
        return PassResult(
            outputs, self.branches * runner.sim_count, simulated_seconds(runner), gap, extra
        )


class MatrixCold(Workload):
    """One ``repro run``-shaped matrix with fresh result cache and artifact store."""

    name = "matrix_cold"
    branches = 20000

    def execute(self, ctx: dict, tracer=None):
        from repro.core import ArtifactStore, ResultCache, Runner

        runner = Runner(
            self.config(ctx["seed"]),
            cache=ResultCache(ctx["pass_dir"] / "results"),
            artifacts=ArtifactStore(ctx["pass_dir"] / "artifacts"),
            backend="auto",
        )
        return runner, runner.run_matrix(MATRIX_PROFILES, MATRIX_CONFIGS, jobs=1)

    def finish(self, ctx: dict, raw) -> PassResult:
        runner, table = raw
        cells = [(w, c, {}) for w in MATRIX_PROFILES for c in MATRIX_CONFIGS]
        gap = llbpx_gap([(table[w]["tsl_64k"], table[w]["llbpx"]) for w in MATRIX_PROFILES])
        extra = {
            "artifacts.store_mb": tree_mb(ctx["pass_dir"] / "artifacts"),
            "ledger.segments": ledger_segments(ctx["pass_dir"] / "results"),
        }
        result = PassResult(
            _cell_outputs(runner, cells),
            self.branches * runner.sim_count,
            simulated_seconds(runner),
            gap,
            extra,
        )
        shutil.rmtree(ctx["pass_dir"])
        return result


def sweep_cells(workload: str) -> List[tuple]:
    """The 21 lanes of one profile's design-space sweep, all on the tsl_64k base."""
    from repro.experiments.fig16_capacity import FIG16A_CONTEXTS
    from repro.experiments.sec7ef_ablation import CTT_SWEEP, HTH_SWEEP

    cells = [(workload, config, {}) for config in MATRIX_CONFIGS]
    cells += [
        (workload, "llbpx_0lat", {"num_contexts": contexts, "store_assoc": 64})
        for contexts in FIG16A_CONTEXTS
    ]
    cells += [(workload, "llbpx", {"history_threshold": h_th}) for h_th in HTH_SWEEP]
    cells += [(workload, "llbpx", {"ctt_entries": entries}) for entries in CTT_SWEEP]
    cells.append((workload, "llbpx", {"use_history_ranges": False}))
    return cells


class SweepWarm(Workload):
    """A design-space sweep over a warm artifact store and a cold result cache."""

    name = "sweep_warm"
    branches = 10000

    def setup(self, directory: Path, seed: Optional[int]) -> dict:
        from repro.core import ArtifactStore
        from repro.core.batched import base_config
        from repro.traces.workloads import clear_trace_cache

        state = super().setup(directory, seed)
        clear_trace_cache()
        config = self.config(seed)
        store = ArtifactStore(directory / "artifacts")
        store.warm_bases(SWEEP_PROFILES, config, [base_config("tsl_64k", config.scale)])
        state["artifacts"] = store.root
        return state

    def execute(self, ctx: dict, tracer=None):
        from repro.core import ArtifactStore, ResultCache, Runner

        runner = Runner(
            self.config(ctx["seed"]),
            cache=ResultCache(ctx["pass_dir"] / "results"),
            artifacts=ArtifactStore(ctx["artifacts"]),
            backend="auto",
        )
        cells = [cell for workload in SWEEP_PROFILES for cell in sweep_cells(workload)]
        return runner, runner.run_cells(cells, jobs=1)

    def finish(self, ctx: dict, raw) -> PassResult:
        runner, _ = raw
        cells = [cell for workload in SWEEP_PROFILES for cell in sweep_cells(workload)]
        gap = llbpx_gap(
            [(runner.lookup_cached(w, "tsl_64k"), runner.lookup_cached(w, "llbpx")) for w in SWEEP_PROFILES]
        )
        extra = {
            "artifacts.store_mb": tree_mb(ctx["artifacts"]),
            "ledger.segments": ledger_segments(ctx["pass_dir"] / "results"),
        }
        result = PassResult(
            _cell_outputs(runner, cells),
            self.branches * runner.sim_count,
            simulated_seconds(runner),
            gap,
            extra,
        )
        shutil.rmtree(ctx["pass_dir"])
        return result


_LLBPX_LINE = re.compile(r"\|\s*llbpx\s+\|.*\(\s*([+-]?\d+\.\d)% vs tsl_64k\)")


class CliRerun(Workload):
    """Repeated ``python -m repro run`` calls answered from a warm result cache."""

    name = "cli_rerun"
    branches = 20000
    #: p90 of the per-call latency needs 100 calls to have ten beyond it
    min_passes = 100

    def argv(self, cache_dir: Path) -> List[str]:
        argv = ["run"]
        for workload in MATRIX_PROFILES:
            argv += ["--workload", workload]
        for config in MATRIX_CONFIGS:
            argv += ["--config", config]
        return argv + ["--branches", str(self.branches), "--cache-dir", str(cache_dir)]

    def label(self, seed: Optional[int]) -> str:
        return "default"  # the CLI takes no workload seed

    def _call(self, cache_dir: Path, directory: Path) -> tuple:
        """(exit status, stdout, stderr, peak RSS in MiB) of one CLI call.

        The call's output goes to files in ``directory``, and the child is
        reaped with ``wait4`` so its own peak RSS is known.
        """
        out_path, err_path = directory / "stdout.txt", directory / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.argv(cache_dir)],
                cwd=ROOT,
                env=child_env(),
                stdout=out,
                stderr=err,
            )
            timer = threading.Timer(120, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        return (
            child.returncode,
            out_path.read_text(),
            err_path.read_text(),
            usage.ru_maxrss / 1024.0,  # KiB on Linux
        )

    def setup(self, directory: Path, seed: Optional[int]) -> dict:
        status, _, stderr, _ = self._call(directory / "cache", directory)
        if status != 0:
            raise RuntimeError("cold fill run failed:\n" + stderr)
        return {"seed": None, "filled": directory / "cache"}

    def prepare(self, state: dict, directory: Path) -> dict:
        # every call starts from the cache the fill left, so the ledger
        # holds one record and a call's cost does not depend on how many
        # calls came before it
        ctx = super().prepare(state, directory)
        ctx["cache"] = directory / "cache"
        shutil.copytree(state["filled"], ctx["cache"])
        return ctx

    def execute(self, ctx: dict, tracer=None):
        if tracer is None:
            status, stdout, _, peak = self._call(ctx["cache"], ctx["pass_dir"])
            return stdout, status, peak
        import repro.__main__ as cli

        span = tracer.open("cli.import")
        subprocess.run(
            [sys.executable, "-c", "import repro.__main__"],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=120,
        )
        tracer.close(span)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = cli.main(self.argv(ctx["cache"]))
        return captured.getvalue(), status, None

    def finish(self, ctx: dict, raw) -> PassResult:
        stdout, status, peak = raw
        reductions = [float(match.group(1)) for match in _LLBPX_LINE.finditer(stdout)]
        # no llbpx line means the stdout check below fails the pass anyway
        gap = abs(sum(reductions) / len(reductions) - PAPER_LLBPX_REDUCTION) if reductions else -1.0
        output = digest_text(stdout) if status == 0 else "exit %s" % status
        cells = len(MATRIX_PROFILES) * len(MATRIX_CONFIGS)
        extra = {"ledger.segments": ledger_segments(ctx["cache"])}
        result = PassResult({"stdout": output}, self.branches * cells, None, gap, extra, peak)
        shutil.rmtree(ctx["pass_dir"])
        return result


WORKLOADS = {cls.name: cls for cls in (PaperRegen, MatrixCold, SweepWarm, CliRerun)}

"""Shared fixtures: small traces and predictors sized for fast tests."""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from pathlib import Path

import pytest

import repro.core.parallel as parallel
from repro.core import Runner, RunnerConfig
from repro.llbp import ContextStreams
from repro.tage import TraceTensors, tsl_64k
from repro.traces import BranchKind, Trace, generate_workload

TEST_SCALE = 8

#: the real pool task, which :func:`doomed_task` delegates to
_simulate_task = parallel.simulate_task
#: ``<mode>|<workload>|<cache dir>|<finished>`` -- what :func:`doomed_task` does
DOOM_ENV = "REPRO_TEST_DOOMED_TASK"


def make_cond_trace(outcomes, pc=0x1000, gap=3) -> Trace:
    """A trace of one conditional branch with the given outcome sequence."""
    trace = Trace(name="cond")
    for taken in outcomes:
        trace.append(pc, pc + 32, BranchKind.COND, bool(taken), gap)
    return trace


def make_mixed_trace(n=2000, seed=7) -> Trace:
    """A small trace mixing conditional branches, calls, and returns."""
    rng = random.Random(seed)
    trace = Trace(name="mixed", seed=seed)
    funcs = [0x8000 + 64 * i for i in range(6)]
    for i in range(n):
        kind = rng.choice([BranchKind.COND, BranchKind.COND, BranchKind.CALL, BranchKind.RETURN])
        if kind == BranchKind.COND:
            pc = 0x1000 + 8 * rng.randrange(20)
            trace.append(pc, pc + 32, kind, rng.random() < 0.6, rng.randrange(6))
        elif kind == BranchKind.CALL:
            trace.append(0x2000 + 8 * rng.randrange(8), rng.choice(funcs), kind, True, rng.randrange(6))
        else:
            trace.append(0x3000 + 8 * rng.randrange(8), 0x2000, kind, True, rng.randrange(6))
    return trace


@pytest.fixture(scope="session")
def small_workload_trace() -> Trace:
    """A cached 20K-branch nodeapp trace shared by integration tests."""
    return generate_workload("nodeapp", num_branches=20_000)


@pytest.fixture(scope="session")
def small_bundle(small_workload_trace):
    tensors = TraceTensors(small_workload_trace)
    return small_workload_trace, tensors, ContextStreams(tensors)


@pytest.fixture(scope="session")
def quick_runner() -> Runner:
    """A runner with short traces for experiment smoke tests."""
    return Runner(RunnerConfig(scale=TEST_SCALE, num_branches=15_000))


@pytest.fixture()
def tsl_config():
    return tsl_64k(scale=TEST_SCALE)


class DoomedTaskError(RuntimeError):
    """What a doomed pool task raises in ``raise`` mode."""


def doomed_task(config, cells, artifact_dir=None, telemetry=None):
    """``simulate_task``, except that one workload's task fails.

    The doomed task first waits (up to a minute) until ``finished``
    result files are in the cache directory, so that exactly the other
    tasks have completed when it fails.  ``die`` mode then ends the
    worker process abruptly, as an OOM kill would; ``raise`` mode raises
    :class:`DoomedTaskError`.
    """
    mode, workload, cache_dir, finished = os.environ[DOOM_ENV].split("|")
    if cells[0][0] != workload:
        return _simulate_task(config, cells, artifact_dir, telemetry)
    deadline = time.monotonic() + 60.0
    while len(list(Path(cache_dir).glob("*.json"))) < int(finished):
        if time.monotonic() > deadline:
            break
        time.sleep(0.02)
    if mode == "die":
        os._exit(1)
    raise DoomedTaskError(f"doomed task for {workload}")


@pytest.fixture()
def doom_task(monkeypatch):
    """Arm :func:`doomed_task`: ``doom_task(mode, workload, cache_dir, finished)``.

    It replaces ``repro.core.parallel.simulate_task``; pool workers are
    forked, so they inherit the patch.  The CPU count is raised to at
    least two, so that the doomed task and the others get a worker each
    even on a one-CPU machine.
    """
    cpus = os.cpu_count() or 1

    def arm(mode, workload, cache_dir, finished=0):
        monkeypatch.setenv(DOOM_ENV, f"{mode}|{workload}|{cache_dir}|{finished}")
        monkeypatch.setattr(parallel, "simulate_task", doomed_task)
        monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))

    return arm


def wait_for_no_children(seconds=5.0):
    """Whether every multiprocessing child has exited within ``seconds``."""
    deadline = time.monotonic() + seconds
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True

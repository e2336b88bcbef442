"""Simulation core: the trace-driven loop, runners, and paper analyses."""

from repro.core.analysis import (
    ContextProfile,
    context_profile,
    depth_sweep_relative,
    duplication_by_depth,
    useful_by_depth,
)
from repro.core.artifacts import ARTIFACT_FORMAT_VERSION, ArtifactStore, BundleArtifacts
from repro.core.batched import BatchPlan, LaneOutcome, base_config, plan_batches, run_group
from repro.core.costmodel import (
    CostModel,
    LearnedCostModel,
    evaluate_cost_model,
    make_cost_model,
)
from repro.core.limit_study import LIMIT_STEPS, LimitStep, cumulative_overrides, run_limit_study
from repro.core.parallel import effective_jobs
from repro.core.sched import CoopScheduler, HostLedger, drain_cooperative
from repro.core.run_report import CellReport, RunReport
from repro.core.runner import (
    DEFAULT_BRANCHES,
    DEFAULT_SCALE,
    ComparisonRow,
    Runner,
    RunnerConfig,
    WorkloadBundle,
    comparison_table,
    geometric_mean_mpki,
    reduction,
)
from repro.core.results_io import (
    ResultCache,
    TimingStore,
    cache_digest,
    cache_key,
    freeze_overrides,
    load_results,
    result_from_dict,
    result_key,
    result_to_dict,
    save_results,
)
from repro.core.simulator import Predictor, SimulationResult, simulate

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactStore",
    "BatchPlan",
    "BundleArtifacts",
    "CellReport",
    "ComparisonRow",
    "ContextProfile",
    "CoopScheduler",
    "CostModel",
    "DEFAULT_BRANCHES",
    "DEFAULT_SCALE",
    "HostLedger",
    "LIMIT_STEPS",
    "LaneOutcome",
    "LearnedCostModel",
    "LimitStep",
    "Predictor",
    "ResultCache",
    "RunReport",
    "Runner",
    "RunnerConfig",
    "SimulationResult",
    "TimingStore",
    "WorkloadBundle",
    "base_config",
    "cache_digest",
    "cache_key",
    "comparison_table",
    "context_profile",
    "cumulative_overrides",
    "depth_sweep_relative",
    "drain_cooperative",
    "duplication_by_depth",
    "effective_jobs",
    "evaluate_cost_model",
    "freeze_overrides",
    "geometric_mean_mpki",
    "load_results",
    "make_cost_model",
    "plan_batches",
    "reduction",
    "result_from_dict",
    "result_key",
    "result_to_dict",
    "run_group",
    "run_limit_study",
    "save_results",
    "simulate",
    "useful_by_depth",
]

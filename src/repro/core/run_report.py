"""Structured reports of how a matrix run went.

:class:`RunReport` records, per requested cell, where its result came
from (``cached`` or ``simulated``; empty if the run stopped before the
cell resolved), how long its simulation took and whether it replayed a
persisted base stream; plus run-level records (batched group sizes, the
cost model's predictions, multi-host claims, whether the run was
interrupted) and -- at serialization time -- the result cache /
artifact store health counters (hits, quarantined entries, swept temps).

The report is owned by the :class:`~repro.core.runner.Runner`
(``runner.report``) and accumulates across ``run_cells`` calls within
one runner's lifetime, which matches one CLI invocation.  ``--report
PATH`` serialises it as JSON; the end-of-run summary line is
:meth:`RunReport.summary`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.results_io import freeze_overrides
from repro.obs.telemetry import emit_event

REPORT_FORMAT_VERSION = 2


@dataclass
class CellReport:
    """Execution record of one (workload, config, overrides) cell."""

    workload: str
    config: str
    overrides: str = ""
    source: str = ""  # "cached" | "simulated" | "" (never resolved)
    #: lane that adopted a persisted base stream (tail-only replay)
    base_warm: bool = False
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config,
            "overrides": self.overrides,
            "source": self.source,
            "base_warm": self.base_warm,
            "seconds": self.seconds,
        }


class RunReport:
    """Aggregates per-cell execution records and run-level counters."""

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str, str], CellReport] = {}
        #: the run was interrupted (Ctrl-C, or a service job cancellation)
        #: before every cell resolved -- recorded results are still valid
        self.interrupted = False
        #: lane count of every batched group executed this run
        self.batched_group_sizes: List[int] = []
        #: (predicted, actual) seconds per completed cell -- the cost
        #: model's scheduling estimates scored against reality
        self.predictions: List[Tuple[float, float]] = []
        #: which estimator produced the predictions ("heuristic"/"learned")
        self.cost_model_kind = ""
        #: multi-host scheduling counters (set by repro.core.sched)
        self.host_id = ""
        self.claims = 0
        self.peer_results = 0
        self.reaped_claims = 0
        self.started_at = time.time()

    # -- recording ----------------------------------------------------------

    @staticmethod
    def _overrides_token(overrides: Optional[Mapping[str, object]]) -> str:
        frozen = freeze_overrides(overrides)
        return repr(frozen) if frozen else ""

    def cell(
        self,
        workload: str,
        config: str,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> CellReport:
        token = self._overrides_token(overrides)
        key = (workload, config, token)
        if key not in self._cells:
            self._cells[key] = CellReport(workload=workload, config=config, overrides=token)
        return self._cells[key]

    def record_cached(
        self, workload: str, config: str, overrides: Optional[Mapping[str, object]] = None
    ) -> None:
        """The cell resolved from the memo or disk cache -- no execution."""
        entry = self.cell(workload, config, overrides)
        if not entry.source:
            entry.source = "cached"

    def record_success(
        self,
        workload: str,
        config: str,
        overrides: Optional[Mapping[str, object]],
        seconds: float,
        base_warm: bool = False,
    ) -> None:
        entry = self.cell(workload, config, overrides)
        entry.source = "simulated"
        entry.base_warm = base_warm
        entry.seconds += seconds
        emit_event("cell-success", workload=workload, config=config, seconds=seconds)

    def record_batched_group(self, lanes: int) -> None:
        """A group of ``lanes`` cells executed over one base stream."""
        self.batched_group_sizes.append(int(lanes))
        emit_event("batched-group", lanes=lanes)

    def record_prediction(self, predicted: float, actual: float) -> None:
        """Score one completed cell's scheduling estimate against reality."""
        self.predictions.append((float(predicted), float(actual)))

    def record_claim(self, cells: int) -> None:
        """This host claimed ``cells`` cells from the shared ledger."""
        self.claims += int(cells)

    def record_peer_result(self, cells: int = 1) -> None:
        """``cells`` cells arrived via a peer host's published results."""
        self.peer_results += int(cells)

    def record_reap(self, cells: int = 1) -> None:
        """``cells`` stale claims of a dead host were reaped for re-claim."""
        self.reaped_claims += int(cells)

    def record_interrupted(self) -> None:
        """The run stopped before completion (interrupt or cancellation)."""
        if not self.interrupted:
            self.interrupted = True
            emit_event("run-interrupted-report")

    # -- aggregates ---------------------------------------------------------

    def cells(self) -> List[CellReport]:
        return [self._cells[key] for key in sorted(self._cells)]

    def prediction_stats(self) -> Dict[str, object]:
        """Predicted-vs-actual accuracy of the scheduling cost model.

        MAPE over completed cells; zero-duration actuals are skipped
        (nothing meaningful to divide by).
        """
        errors = [
            abs(predicted - actual) / actual
            for predicted, actual in self.predictions
            if actual > 0
        ]
        return {
            "kind": self.cost_model_kind,
            "predictions": len(errors),
            "mape_percent": round(100.0 * sum(errors) / len(errors), 2) if errors else None,
        }

    def _totals(self) -> Dict[str, object]:
        cells = list(self._cells.values())
        return {
            "cells": len(cells),
            "cached": sum(1 for entry in cells if entry.source == "cached"),
            "simulated": sum(1 for entry in cells if entry.source == "simulated"),
            "seconds": sum(entry.seconds for entry in cells),
            "batched_groups": len(self.batched_group_sizes),
            "batched_lanes": sum(self.batched_group_sizes),
            "base_warm": sum(1 for entry in cells if entry.base_warm),
        }

    def totals(self) -> Dict[str, object]:
        totals = self._totals()
        # nothing retries any more; the perfbench paper_regen workload
        # still reads this key, so it stays a constant 0 until that
        # benchmark next changes (the JSON report and summary omit it)
        totals["retries"] = 0
        return totals

    # -- serialisation ------------------------------------------------------

    def to_dict(self, runner=None) -> Dict[str, object]:
        """JSON-able report; ``runner`` contributes cache/artifact health.

        ``quarantined`` is surfaced at the top level (result-cache plus
        artifact-store quarantines) because it is the number an operator
        triages first: non-zero means on-disk state was damaged and
        healed this run.
        """
        data: Dict[str, object] = {
            "version": REPORT_FORMAT_VERSION,
            "started_at": self.started_at,
            "cells": [entry.to_dict() for entry in self.cells()],
            "totals": self._totals(),
            "interrupted": self.interrupted,
            "batched_group_sizes": list(self.batched_group_sizes),
            "cost_model": self.prediction_stats(),
            "quarantined": 0,
        }
        if self.host_id:
            data["distributed"] = {
                "host_id": self.host_id,
                "claims": self.claims,
                "peer_results": self.peer_results,
                "reaped_claims": self.reaped_claims,
            }
        if runner is not None:
            data["simulations"] = runner.sim_count
            quarantined = 0
            if runner.cache is not None:
                data["cache"] = runner.cache.stats()
                quarantined += runner.cache.quarantined
            if runner.artifacts is not None:
                data["artifacts"] = runner.artifacts.stats()
                quarantined += runner.artifacts.quarantined
            data["quarantined"] = quarantined
        return data

    def summary(self, runner=None) -> str:
        """One-line end-of-run summary (grep-friendly ``key=value`` pairs)."""
        totals = self._totals()
        sizes = self.batched_group_sizes
        line = (
            f"run report: cells={totals['cells']} cached={totals['cached']} "
            f"simulated={totals['simulated']} "
            f"batched_groups={len(sizes)} batched_lanes={sum(sizes)} "
            f"max_group_lanes={max(sizes) if sizes else 0} "
            f"base_warm={totals['base_warm']}"
        )
        if self.interrupted:
            line += " interrupted=yes"
        stats = self.prediction_stats()
        if stats["mape_percent"] is not None:
            line += f" cost_model={stats['kind'] or 'heuristic'} cost_mape={stats['mape_percent']}%"
        if self.host_id:
            line += (
                f" host={self.host_id} claims={self.claims} "
                f"peer_results={self.peer_results} reaped_claims={self.reaped_claims}"
            )
        if runner is not None:
            quarantined = 0
            if runner.cache is not None:
                quarantined += runner.cache.quarantined
            if runner.artifacts is not None:
                quarantined += runner.artifacts.quarantined
            line += f" quarantined={quarantined}"
        return line

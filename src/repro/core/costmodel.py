"""Cell-cost estimation: the static heuristic and the learned regressor.

The parallel scheduler orders cells longest-expected-first, so makespan
shrinks directly with estimate quality (a mis-ranked long cell strands a
core on the matrix tail).  Three estimate tiers live here, best first:

1. **Observed EMA** -- a cell that has run before under this timing key
   (recorded base or adopted base) is predicted by its own persisted
   timing (:class:`TimingStore`).
2. **Learned model** -- for *unseen* cells, a ridge regression fit on
   the store's sample corpus predicts ``log(seconds)`` from cheap
   features: trace length, configuration weight and capacity, timing
   key, and the workload's structural densities (conditional share,
   H2P density, context diversity from
   :func:`repro.traces.characterize.workload_features`).  This is the
   Gem5Pred observation applied to our simulator: simulation time is an
   accurately learnable function of workload/config features.
3. **Static heuristic** -- ``trace length x configuration weight`` at a
   measured baseline rate; always available, used whenever the corpus
   is below :data:`DEFAULT_MIN_SAMPLES` or a feature is unavailable.

The fit is closed-form (``numpy.linalg.lstsq`` on a ridge-augmented
design matrix -- no new dependencies, deterministic for a given corpus)
and the coefficients persist beside ``timings.meta`` as
``costmodel.meta`` so later invocations -- and other hosts sharing the
store -- start with a trained model before observing anything
themselves.  Estimates order the queue; they never affect results.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.fsio import stale_temp
from repro.core.results_io import COSTMODEL_FILENAME, LEGACY_TIMING_KEY, TimingStore
from repro.obs.log import get_logger

logger = get_logger("costmodel")

COSTMODEL_FORMAT_VERSION = 1

#: minimum sample-corpus size before the learned model replaces the
#: heuristic (below this a fit would mostly memorise noise)
DEFAULT_MIN_SAMPLES = 12

#: ridge penalty on the (log-feature) design matrix
DEFAULT_RIDGE = 1e-2

#: relative single-simulation cost by config-name prefix (first match
#: wins; measured on the shipped kernels -- Opt-W replays three LLBP-X
#: simulations).  Only scheduling order depends on these.
CONFIG_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("llbpx_optw", 5.4),
    ("llbpx", 1.9),
    ("llbp", 1.6),
    ("tsl_inf", 1.3),
)

#: static per-branch cost scale (seconds/branch at the measured ~100k
#: branches/sec baseline rate) -- keeps static estimates in the same
#: units as observed timings
_SECONDS_PER_BRANCH = 1e-5

#: timing/observation key of a lane whose group recorded its base stream
BATCHED_KEY = "batched"
#: timing/observation key of a lane replaying a *persisted* base stream
#: (tail-only, no base pass)
BASE_WARM_KEY = "batched+warm"

#: regression feature names, in design-matrix column order
FEATURE_NAMES: Tuple[str, ...] = (
    "intercept",
    "log_branches",
    "log_weight",
    "log_capacity_kb",
    "batched",
    "base_warm",
    "cond_share",
    "h2p_density",
    "context_diversity",
    "static_density",
)


def config_weight(name: str) -> float:
    """Relative cost weight of a predictor configuration."""
    for prefix, weight in CONFIG_WEIGHTS:
        if name.startswith(prefix):
            return weight
    return 1.0


def config_capacity_kb(name: str) -> float:
    """Nominal table capacity of a configuration in KB (feature only).

    TSL presets encode theirs in the name; the LLBP family runs over the
    64 KB base TSL (their extra structures are captured by the weight
    feature); the infinite preset gets a large sentinel capacity.
    """
    if name.startswith("tsl_inf"):
        return 4096.0
    if name.startswith("tsl_"):
        tail = name[len("tsl_"):]
        if tail.endswith("k"):
            try:
                return float(int(tail[:-1]))
            except ValueError:
                pass
    return 64.0


def feature_vector(workload: str, name: str, key: str, branches: int) -> List[float]:
    """Design-matrix row for one cell (order matches :data:`FEATURE_NAMES`).

    Raises ``KeyError`` for a workload the generator does not know --
    callers fall back to the static heuristic for such cells.
    """
    from repro.traces.characterize import workload_features

    profile = workload_features(workload)
    return [
        1.0,
        math.log(max(1, branches)),
        math.log(config_weight(name)),
        math.log(config_capacity_kb(name)),
        # "batched+warm" is a batched execution too (startswith covers it)
        1.0 if key.startswith(BATCHED_KEY) else 0.0,
        1.0 if key == BASE_WARM_KEY else 0.0,
        profile["cond_share"],
        profile["h2p_density"],
        profile["context_diversity"],
        profile["static_density"],
    ]


def fit_ridge(rows: Sequence[Sequence[float]], targets: Sequence[float], ridge: float = DEFAULT_RIDGE) -> List[float]:
    """Closed-form ridge fit via lstsq on the penalty-augmented system.

    Deterministic for a given corpus; the intercept column is penalised
    like every other (the penalty is tiny and the fit stays exact on
    clean synthetic corpora, which the tests pin).
    """
    import numpy as np

    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    k = X.shape[1]
    A = np.vstack([X, math.sqrt(ridge) * np.eye(k)])
    b = np.concatenate([y, np.zeros(k)])
    coef, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return [float(c) for c in coef]


class CostModel:
    """Expected wall-clock of one cell, for longest-expected-first order.

    The static estimate is ``trace length x configuration weight``; an
    attached :class:`TimingStore` overrides it with the observed EMA for
    cells that have run before (persisted alongside the result cache, so
    estimates survive across invocations).  Estimates order the queue --
    they never affect results.
    """

    def __init__(self, timings: Optional[TimingStore] = None) -> None:
        self.timings = timings

    @property
    def kind(self) -> str:
        """Which estimator answers for unseen cells (``heuristic``/``learned``)."""
        return "heuristic"

    @staticmethod
    def static_estimate(name: str, num_branches: int) -> float:
        """The hand-tuned prior: length x weight at the baseline rate."""
        return num_branches * config_weight(name) * _SECONDS_PER_BRANCH

    def estimate(
        self, workload: str, name: str, num_branches: int, key: str = BATCHED_KEY
    ) -> float:
        """Expected seconds of one cell under timing ``key``.

        Observed timings are keyed (a warm tail-only replay costs
        systematically less than record + tail); lookups fall back along
        ``batched+warm -> batched -> reference`` (the legacy key of
        observations from before lanes ran over base streams) -- each
        step an overestimate, which only makes the scheduler start the
        work earlier -- before the static estimate.
        """
        if self.timings is not None:
            observed = self._observed(workload, name, key)
            if observed is not None:
                return observed
        return self.static_estimate(name, num_branches)

    def _observed(self, workload: str, name: str, key: str) -> Optional[float]:
        """Keyed EMA lookup with the warm->batched->legacy chain."""
        if self.timings is None:
            return None
        observed = self.timings.get(workload, name, key)
        if observed is None and key == BASE_WARM_KEY:
            observed = self.timings.get(workload, name, BATCHED_KEY)
        if observed is None and key != LEGACY_TIMING_KEY:
            observed = self.timings.get(workload, name, LEGACY_TIMING_KEY)
        return observed

    def observe(
        self,
        workload: str,
        name: str,
        seconds: float,
        key: str = BATCHED_KEY,
        branches: Optional[int] = None,
    ) -> None:
        if self.timings is not None:
            self.timings.observe(workload, name, seconds, key, branches=branches)

    def save(self) -> None:
        if self.timings is not None:
            self.timings.save()


class LearnedCostModel(CostModel):
    """Ridge-regression cell-time predictor, heuristic below the sample bar.

    Lazily fits on the attached store's sample corpus at first estimate:
    with at least ``min_samples`` rows the fitted coefficients answer for
    unseen cells (observed EMAs still win for seen ones); otherwise a
    previously persisted fit is adopted if one exists, and failing that
    every unseen cell falls back to the static heuristic -- so a cold
    deployment behaves exactly like the old model until enough timing
    history accumulates.

    Coefficients persist to ``path`` (default: ``costmodel.meta`` beside
    the timing store's file) with *larger-corpus-wins* merge semantics:
    a save never replaces a fit trained on more samples than its own,
    mirroring the timing store's lose-nothing merge-on-save.
    """

    def __init__(
        self,
        timings: Optional[TimingStore] = None,
        path: Optional[Union[str, Path]] = None,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        ridge: float = DEFAULT_RIDGE,
    ) -> None:
        super().__init__(timings)
        if path is None and timings is not None and timings.path is not None:
            path = timings.path.with_name(COSTMODEL_FILENAME)
        self.path = Path(path) if path is not None else None
        self.min_samples = min_samples
        self.ridge = ridge
        self._coef: Optional[List[float]] = None
        self._fitted_samples = 0
        self._prepared = False

    @property
    def kind(self) -> str:
        self._ensure_model()
        return "learned" if self._coef is not None else "heuristic"

    @property
    def samples_used(self) -> int:
        """Corpus size behind the active fit (0 when on the heuristic)."""
        self._ensure_model()
        return self._fitted_samples

    @property
    def coefficients(self) -> Optional[Dict[str, float]]:
        self._ensure_model()
        if self._coef is None:
            return None
        return dict(zip(FEATURE_NAMES, self._coef))

    # -- fitting ------------------------------------------------------------

    def _corpus(self) -> List[Tuple[List[float], float]]:
        """(feature row, log-seconds) pairs from the store's sample corpus.

        Rows whose workload the generator cannot probe are skipped --
        the model simply never answers for them.
        """
        if self.timings is None:
            return []
        rows: List[Tuple[List[float], float]] = []
        for workload, name, backend, branches, seconds, _count in self.timings.samples():
            if seconds <= 0:
                continue
            try:
                features = feature_vector(workload, name, backend, branches)
            except KeyError:
                continue
            rows.append((features, math.log(seconds)))
        return rows

    def _ensure_model(self) -> None:
        if self._prepared:
            return
        self._prepared = True
        corpus = self._corpus()
        if len(corpus) >= self.min_samples:
            self._coef = fit_ridge([row for row, _ in corpus], [y for _, y in corpus], self.ridge)
            self._fitted_samples = len(corpus)
            logger.info(
                "cost model: fitted on %d samples (ridge=%g)", len(corpus), self.ridge
            )
            return
        persisted = self._load_coefficients()
        if persisted is not None and persisted["samples"] >= self.min_samples:
            self._coef = list(persisted["coef"])
            self._fitted_samples = int(persisted["samples"])
            logger.info(
                "cost model: adopted persisted fit (%d samples; local corpus has %d)",
                self._fitted_samples,
                len(corpus),
            )
            return
        logger.info(
            "cost model: %d/%d samples -- using the static heuristic",
            len(corpus),
            self.min_samples,
        )

    def refit(self) -> str:
        """Drop any cached fit and re-prepare from the current corpus."""
        self._prepared = False
        self._coef = None
        self._fitted_samples = 0
        return self.kind

    # -- estimation ---------------------------------------------------------

    def estimate(
        self, workload: str, name: str, num_branches: int, key: str = BATCHED_KEY
    ) -> float:
        if self.timings is not None:
            observed = self._observed(workload, name, key)
            if observed is not None:
                return observed
        self._ensure_model()
        if self._coef is not None:
            try:
                row = feature_vector(workload, name, key, num_branches)
            except KeyError:
                return self.static_estimate(name, num_branches)
            log_seconds = sum(c * x for c, x in zip(self._coef, row))
            # clamp the exponent: a wild extrapolation must not overflow
            # or starve the queue -- estimates only order work
            return math.exp(max(-30.0, min(30.0, log_seconds)))
        return self.static_estimate(name, num_branches)

    # -- persistence --------------------------------------------------------

    def _load_coefficients(self) -> Optional[Dict[str, object]]:
        """The persisted fit, or ``None`` (advisory -- any error reads empty)."""
        if self.path is None:
            return None
        for tmp in self.path.parent.glob(f"{self.path.name}.tmp.*"):
            if stale_temp(tmp, tmp.name.rsplit(".", 1)[-1]):
                try:
                    tmp.unlink()
                except FileNotFoundError:
                    pass
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("version") != COSTMODEL_FORMAT_VERSION:
                return None
            if tuple(payload.get("features", ())) != FEATURE_NAMES:
                return None  # stale feature schema: refit from scratch
            coef = [float(c) for c in payload["coef"]]
            if len(coef) != len(FEATURE_NAMES):
                return None
            return {"coef": coef, "samples": int(payload.get("samples", 0))}
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def save(self) -> None:
        """Persist timings (merge-on-save) and the fit, larger corpus wins."""
        super().save()
        if self.path is None or self._coef is None or self._fitted_samples == 0:
            return
        existing = self._load_coefficients()
        if existing is not None and existing["samples"] > self._fitted_samples:
            return  # a better-trained fit is already on disk
        payload = {
            "version": COSTMODEL_FORMAT_VERSION,
            "samples": self._fitted_samples,
            "ridge": self.ridge,
            "features": list(FEATURE_NAMES),
            "coef": self._coef,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, self.path)


def make_cost_model(timings: Optional[TimingStore] = None) -> CostModel:
    """The scheduler's default cost model: learned, self-falling-back."""
    return LearnedCostModel(timings)


def evaluate_cost_model(
    timings: TimingStore,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    ridge: float = DEFAULT_RIDGE,
) -> Optional[Dict[str, object]]:
    """Held-out error of the learned model vs the heuristic (MAPE).

    Leave-one-out over the store's sample corpus: each sample is
    predicted by a model fit on all the others, so the comparison
    measures generalisation, not memorisation.  Returns ``None`` when
    the corpus is too small to evaluate (below ``min_samples``).
    """
    rows: List[Tuple[List[float], float, float, str]] = []
    for workload, name, backend, branches, seconds, _count in timings.samples():
        if seconds <= 0:
            continue
        try:
            features = feature_vector(workload, name, backend, branches)
        except KeyError:
            continue
        heuristic = CostModel.static_estimate(name, branches)
        rows.append((features, seconds, heuristic, f"{workload}/{name}@{backend}"))
    if len(rows) < min_samples:
        return None
    learned_errors: List[float] = []
    heuristic_errors: List[float] = []
    for index, (features, actual, heuristic, _key) in enumerate(rows):
        train = [rows[j] for j in range(len(rows)) if j != index]
        coef = fit_ridge(
            [r[0] for r in train], [math.log(r[1]) for r in train], ridge
        )
        predicted = math.exp(
            max(-30.0, min(30.0, sum(c * x for c, x in zip(coef, features))))
        )
        learned_errors.append(abs(predicted - actual) / actual)
        heuristic_errors.append(abs(heuristic - actual) / actual)
    learned_mape = 100.0 * sum(learned_errors) / len(learned_errors)
    heuristic_mape = 100.0 * sum(heuristic_errors) / len(heuristic_errors)
    return {
        "samples": len(rows),
        "learned_mape_percent": round(learned_mape, 2),
        "heuristic_mape_percent": round(heuristic_mape, 2),
        "improvement_percent": round(heuristic_mape - learned_mape, 2),
    }

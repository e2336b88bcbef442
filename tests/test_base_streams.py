"""Persistent shared-base streams: record once, replay forever.

The artifact store persists each group's recorded base stream keyed by
(bundle digest, canonical base config digest, ``BASE_STREAM_VERSION``);
later runs adopt the stored stream and run tail-only.  This suite is the warm path's correctness contract:
replay from a *loaded* stream must be bit-identical to a fresh
recording (and to a cell run over a base of its own) for every
workload and grouped family; a lone cell replays a persisted base; and
a version bump or a torn file invalidates cleanly.

Note the deliberate asymmetry with ``tests/test_batched_equivalence``:
warm-path assertions compare *results*, never predictor table state --
an adopted base leaves the shared core/loop untrained by design (the
tails never read them).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ArtifactStore, Runner, RunnerConfig
from repro.core.batched import base_config, plan_batches, run_group
from repro.tage.batched_state import BASE_STREAM_DTYPE, BASE_STREAM_VERSION, SharedBase
from repro.traces.workloads import WORKLOAD_NAMES
from tests.conftest import TEST_SCALE

CONFIG_NAMES = ("tsl_64k", "llbp", "llbpx")
NUM_BRANCHES = 2_000
SMALL = RunnerConfig(scale=TEST_SCALE, num_branches=NUM_BRANCHES)


# -- bit-identity: loaded replay == fresh record == own base ---------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_loaded_replay_is_bit_identical(workload, tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    cells = [(workload, name, {}) for name in CONFIG_NAMES]
    plan = plan_batches(cells, TEST_SCALE)
    assert [len(g) for g in plan.groups] == [len(CONFIG_NAMES)]

    recorded = list(run_group(Runner(SMALL, artifacts=store), workload, plan.groups[0]))
    assert store.base_writes == 1 and store.base_loads == 0
    assert all(not outcome.base_warm for outcome in recorded)

    replayed = list(run_group(Runner(SMALL, artifacts=store), workload, plan.groups[0]))
    assert store.base_loads == 1 and store.base_writes == 1  # no re-record
    assert all(outcome.base_warm for outcome in replayed)

    reference = Runner(SMALL)
    for rec, rep in zip(recorded, replayed):
        _, name, _ = rec.cell
        expected = reference.run_one(workload, name, use_cache=False)
        assert rec.result == expected
        assert rep.result == expected


def test_stream_on_disk_round_trips_exactly(tmp_path):
    """The persisted array is byte-for-byte the recorded stream."""
    store = ArtifactStore(tmp_path / "artifacts")
    runner = Runner(SMALL, artifacts=store)
    bundle = runner.bundle("kafka")
    base = base_config("llbp", TEST_SCALE)
    shared = SharedBase(base, bundle.tensors)
    shared.record(bundle.trace, bundle.tensors)
    stream = shared.packed_stream()
    assert stream.dtype == BASE_STREAM_DTYPE

    store.save_base_stream("kafka", SMALL, base, stream)
    loaded = store.load_base_stream("kafka", SMALL, base, expected_length=len(bundle.trace))
    assert loaded is not None and loaded.dtype == BASE_STREAM_DTYPE
    assert np.array_equal(np.asarray(loaded), stream)

    adopted = SharedBase(base, bundle.tensors)
    adopted.adopt_stream(loaded)
    assert adopted.recorded and adopted.adopted
    assert adopted.footprint_bytes() == stream.nbytes


# -- lone cells over a persisted base ---------------------------------------------


def test_plan_groups_lone_cells_warm_or_cold(tmp_path):
    """Planning never consults the store: a lone cell is a group either way."""
    store = ArtifactStore(tmp_path / "artifacts")
    cells = [("kafka", "tsl_16k", {})]
    cold = plan_batches(cells, TEST_SCALE)
    store.warm_bases(["kafka"], SMALL, [base_config("tsl_16k", TEST_SCALE)])
    warm = plan_batches(cells, TEST_SCALE)
    for plan in (cold, warm):
        assert plan.groups == [cells] and plan.singles == [] and plan.fallbacks == 0

    # an infinite-TAGE cell is grouped like any other
    inf = plan_batches([("kafka", "tsl_inf", {})], TEST_SCALE)
    assert [len(g) for g in inf.groups] == [1] and inf.fallbacks == 0

    with pytest.raises(TypeError):
        plan_batches(cells, TEST_SCALE, base_warm=lambda w, c: True)


def test_singleton_with_persisted_base_runs_batched(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    base = base_config("llbp", TEST_SCALE)
    built, skipped = store.warm_bases(["kafka"], SMALL, [base])
    assert (built, skipped) == (1, 0)

    expected = Runner(SMALL).run_one("kafka", "llbp", use_cache=False)
    runner = Runner(SMALL, artifacts=store)
    assert runner.run_cells([("kafka", "llbp", {})]) == [expected]
    assert runner.report.batched_group_sizes == [1]
    assert runner.report.totals()["base_warm"] == 1
    assert any(entry.base_warm for entry in runner.report.cells())
    assert "base_warm=1" in runner.report.summary()
    assert store.base_loads >= 1 and store.base_writes == 1  # only the warm pass wrote

    # without a persisted base, the same singleton records one and saves it
    cold_store = ArtifactStore(tmp_path / "cold")
    cold = Runner(SMALL, artifacts=cold_store)
    assert cold.run_cells([("kafka", "llbp", {})]) == [expected]
    assert cold.report.batched_group_sizes == [1] and cold.report.totals()["base_warm"] == 0
    assert cold_store.base_writes == 1 and cold_store.has_base_stream("kafka", SMALL, base)


def test_warm_bases_skips_existing_streams(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    base = base_config("llbp", TEST_SCALE)
    infinite = base_config("tsl_inf", TEST_SCALE)
    built, skipped = store.warm_bases(["kafka"], SMALL, [base, infinite])
    assert (built, skipped) == (2, 0)
    built, skipped = store.warm_bases(["kafka"], SMALL, [base, infinite])
    assert (built, skipped) == (0, 2)

    # an infinite-TAGE stream replays like any other
    expected = Runner(SMALL).run_one("kafka", "tsl_inf", use_cache=False)
    warm = Runner(SMALL, artifacts=store)
    assert warm.run_cells([("kafka", "tsl_inf", {})]) == [expected]
    assert warm.report.totals()["base_warm"] == 1


# -- invalidation ----------------------------------------------------------------


def test_version_bump_invalidates_persisted_streams(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path / "artifacts")
    base = base_config("llbp", TEST_SCALE)
    store.warm_bases(["kafka"], SMALL, [base])
    assert store.has_base_stream("kafka", SMALL, base)

    monkeypatch.setattr("repro.core.artifacts.BASE_STREAM_VERSION", BASE_STREAM_VERSION + 1)
    assert not store.has_base_stream("kafka", SMALL, base)
    assert store.load_base_stream("kafka", SMALL, base) is None
    built, skipped = store.warm_bases(["kafka"], SMALL, [base])
    assert (built, skipped) == (1, 0)  # re-recorded under the new key


def test_torn_stream_is_quarantined_and_regenerated(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    cells = [("kafka", name, {}) for name in ("llbp", "llbpx")]
    plan = plan_batches(cells, TEST_SCALE)
    outcomes = list(run_group(Runner(SMALL, artifacts=store), "kafka", plan.groups[0]))

    base = base_config("llbp", TEST_SCALE)
    path = store.base_stream_path("kafka", SMALL, base)
    assert path.is_file()
    path.write_bytes(b"\x93NUMPY torn mid-write")
    assert store.load_base_stream("kafka", SMALL, base) is None
    assert store.quarantined == 1
    assert path.with_name(f"{path.name}.corrupt").is_file() and not path.is_file()

    # the next group records a fresh stream over the same name, results intact
    regenerated = list(run_group(Runner(SMALL, artifacts=store), "kafka", plan.groups[0]))
    assert all(not outcome.base_warm for outcome in regenerated)
    assert [o.result for o in regenerated] == [o.result for o in outcomes]
    assert store.load_base_stream("kafka", SMALL, base) is not None


def test_wrong_length_stream_is_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    base = base_config("llbp", TEST_SCALE)
    runner = Runner(SMALL, artifacts=store)
    bundle = runner.bundle("kafka")
    store.save_base_stream(
        "kafka", SMALL, base, np.zeros(7, dtype=BASE_STREAM_DTYPE)
    )
    assert (
        store.load_base_stream("kafka", SMALL, base, expected_length=len(bundle.trace))
        is None
    )
    assert store.quarantined == 1

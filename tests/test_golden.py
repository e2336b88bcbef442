"""Golden result digests: simulated results pinned to committed values.

Every other predictor check compares one code path with another, so a
change that moves all paths together passes them.  This test compares
against digests committed in ``tests/golden_results.json`` instead: one
sha-256 per cell over :func:`~repro.core.results_io.result_to_dict`
(counts, stats and extra), for every workload profile and every paper
design family, computed through ``Runner.run_cells(jobs=1)``.

At the default sizes LLBP-X's CTT barely moves in 2 000 branches (0-1
insertions, no evictions, no depth transitions), so the
``llbpx+ctt_pressure`` cells shrink the CTT and lower its thresholds
(:data:`CTT_PRESSURE`): every one of them evicts tracked contexts and
switches at least one context to deep, which pins the CTT's
replacement, its LRU refresh on every depth probe, and the depth
transitions themselves.

A change meant to alter results bumps ``MODEL_VERSION`` in
``repro.core.results_io`` and regenerates the file::

    PYTHONPATH=src python -m tests.test_golden --write

The command refuses to overwrite a changed digest while the file's
version equals ``MODEL_VERSION``; it adds digests for new cells without
a bump.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

from repro.core import Runner, RunnerConfig, result_to_dict
from repro.core.results_io import MODEL_VERSION
from repro.traces.workloads import WORKLOAD_NAMES

GOLDEN_PATH = Path(__file__).with_name("golden_results.json")
CONFIGS = ("tsl_64k", "tsl_inf", "llbp", "llbpx", "llbpx_optw")
BRANCHES = 2_000
SCALE = 8

#: LLBP-X overrides that keep the CTT evicting and transitioning within
#: :data:`BRANCHES` (a 6-entry, one-set CTT at ``SCALE``)
CTT_PRESSURE = {
    "ctt_entries": 48,
    "overflow_threshold": 2,
    "history_threshold": 18,
    "hist_counter_step": 4,
}
#: profiles whose CTT-pressure cell makes at least one transition to deep
CTT_PRESSURE_WORKLOADS = ("kafka", "delta", "merced", "whiskey")


def golden_cells() -> Dict[str, Tuple[str, str, Dict[str, object]]]:
    """Digest key -> the ``(workload, config, overrides)`` cell it pins."""
    cells = {
        "%s/%s" % (workload, name): (workload, name, {})
        for workload in WORKLOAD_NAMES
        for name in CONFIGS
    }
    for workload in CTT_PRESSURE_WORKLOADS:
        cells["%s/llbpx+ctt_pressure" % workload] = (workload, "llbpx", dict(CTT_PRESSURE))
    return cells


def compute_digests() -> Dict[str, str]:
    """Digest key -> sha-256 of the cell's result dict."""
    cells = golden_cells()
    runner = Runner(RunnerConfig(scale=SCALE, num_branches=BRANCHES))
    results = runner.run_cells(list(cells.values()), jobs=1)
    return {
        key: hashlib.sha256(
            json.dumps(result_to_dict(result), sort_keys=True).encode("utf-8")
        ).hexdigest()
        for key, result in zip(cells, results)
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_matches_model_version():
    assert load_golden()["model_version"] == MODEL_VERSION, (
        "golden_results.json was computed under another MODEL_VERSION; "
        "regenerate it with `python -m tests.test_golden --write`"
    )


def test_results_match_golden_digests():
    golden = load_golden()
    assert (golden["branches"], golden["scale"]) == (BRANCHES, SCALE)
    digests = compute_digests()
    changed = sorted(cell for cell in digests if golden["digests"].get(cell) != digests[cell])
    assert set(golden["digests"]) == set(digests)
    assert changed == [], "results changed without a MODEL_VERSION bump: %s" % changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check or regenerate the golden digests")
    parser.add_argument("--write", action="store_true", help="rewrite golden_results.json")
    args = parser.parse_args(argv)
    digests = compute_digests()
    old = load_golden() if GOLDEN_PATH.is_file() else None
    changed = []
    added = sorted(digests)
    if old is not None:
        changed = sorted(
            cell for cell in digests if old["digests"].get(cell, digests[cell]) != digests[cell]
        )
        added = sorted(cell for cell in digests if cell not in old["digests"])
    for cell in changed:
        print("changed: %s" % cell)
    for cell in added:
        print("added: %s" % cell)
    if not args.write:
        return 1 if changed or added else 0
    if changed and old["model_version"] == MODEL_VERSION:
        print(
            "refusing to overwrite %d changed digests: bump MODEL_VERSION "
            "(now %d) first" % (len(changed), MODEL_VERSION),
            file=sys.stderr,
        )
        return 1
    payload = {
        "model_version": MODEL_VERSION,
        "branches": BRANCHES,
        "scale": SCALE,
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d cells)" % (GOLDEN_PATH, len(digests)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

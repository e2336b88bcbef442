"""Regenerate ``perfbench/expected.json``, the outputs every pass is checked against.

    python3 perfbench/record_expected.py

Runs one pass of each workload for the default and the held-out seed
and stores the per-cell result digests (plus report-text digests for
``paper_regen`` and the ``repro run`` stdout digest for ``cli_rerun``).
Rerun it only for a change that is meant to alter simulated results,
and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

import run
from workloads import HELD_OUT_SEED, WORKLOADS


def record_expectations(
    names: Sequence[str] = tuple(WORKLOADS), branches: Optional[int] = None
) -> Dict[str, object]:
    """Expected outputs of ``names``, at their own trace lengths or ``branches``."""
    expected: Dict[str, object] = {"branches": {}, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH))
    try:
        for name in names:
            workload = WORKLOADS[name](branches)
            expected["branches"][name] = workload.branches
            by_label = expected["workloads"].setdefault(name, {})
            for seed in (None, HELD_OUT_SEED):
                label = workload.label(seed)
                if label in by_label:
                    continue  # a workload without a seed input has one expectation
                directory = scratch / ("%s-%s" % (name, label))
                directory.mkdir()
                state = workload.setup(directory, seed)
                done = run.timed_pass(workload, state, directory / "pass", None)
                by_label[label] = dict(sorted(done.result.outputs.items()))
        return expected
    finally:
        run.reap_children()
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    import repro  # noqa: F401 - fail early outside a checkout

    expected = record_expectations()
    run.EXPECTED_JSON.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % run.EXPECTED_JSON)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Elastic multi-host matrix scheduling over a shared filesystem.

The paper's full result set is a matrix of thousands of cells, and one
box is not the ceiling: any number of hosts that can see the same
result-cache directory can drain one matrix *cooperatively*.  The
protocol needs no coordinator, no network channel, and no clock
agreement -- only the filesystem primitives the fault ledger already
proved (:mod:`repro.core.faults`):

* **Claim** -- a host atomically claims an uncached cell by creating
  ``<digest>.claim`` (``O_CREAT | O_EXCL``) in the hosts directory next
  to the shared :class:`~repro.core.results_io.ResultCache`.  The digest
  is the cell's cache digest, so the claim namespace and the result
  namespace can never disagree.
* **Publish** -- the claimant simulates the cell through the ordinary
  pipeline (:meth:`Runner.run_cells` -- parallel pool, shared-base
  groups, retries, artifact store, all of it) and the result
  reaches the shared cache *before* the claim is released, so peers
  never observe a completed cell as both unclaimed and uncached.  With
  a shared artifact store attached, the same ordering covers base
  streams: a batched group persists its freshly recorded shared-base
  stream during ``run_cells``, i.e. before its claims release -- one
  host's recording is every peer's warm (tail-only) start.
* **Reap** -- every host maintains a heartbeat file (mtime refresh).  A
  claim is stale -- and reaped, making its cell claimable again -- iff
  its owner is provably dead: same-machine owners are probed directly
  (:func:`~repro.core.faults.pid_alive`); cross-machine owners are
  declared dead only when *both* their heartbeat and the claim file
  itself have gone unrefreshed for the TTL (a freshly re-claimed cell
  has a fresh claim file, so a racing reaper cannot kill a live
  re-claim).

Determinism: every cell is a pure function of its key, so which host
simulates it cannot affect the bytes -- N-host results are bit-identical
to a single-host run (``tests/test_sched.py`` pins this, including
under a SIGKILLed claimant).  Claims are attempted
longest-predicted-first using the learned cost model
(:mod:`repro.core.costmodel`), so the expensive cells start earliest no
matter which host gets them.

Liveness: a host that holds a claim while alive-but-wedged is waited on
indefinitely (we cannot distinguish slow from stuck without violating
the zero-duplicate guarantee); kill it and its cells are reclaimed
within one TTL.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.faults import pid_alive
from repro.obs.log import get_logger
from repro.obs.metrics import registry as obs_registry
from repro.obs.telemetry import emit_event

logger = get_logger("sched")

#: one cell of an experiment matrix: ``(workload, config name, overrides)``
Cell = Tuple[str, str, Mapping[str, object]]

#: default directory name for the ledger, next to the result cache
HOSTS_DIRNAME = ".hosts"

#: seconds without a heartbeat (and claim-file) refresh before a
#: cross-machine claimant is declared dead
DEFAULT_HEARTBEAT_TTL = 30.0

#: seconds between ledger polls while every remaining cell is claimed
#: by peers
DEFAULT_POLL_INTERVAL = 0.25

#: cells a host claims per round -- small enough that a late-joining
#: host finds work, large enough to amortise ledger round-trips
DEFAULT_CLAIM_BATCH = 4


def default_host_id() -> str:
    """A filesystem-safe host identity: ``<node>-<pid>``."""
    node = re.sub(r"[^A-Za-z0-9_.-]", "-", platform.node() or "host")
    return f"{node or 'host'}-{os.getpid()}"


def file_age(mtime: float, now: Optional[float] = None) -> float:
    """Seconds since ``mtime``, clamped to >= 0.

    Cross-machine clock skew (or a coarse-mtime filesystem rounding a
    write into the future) can make ``time.time() - st_mtime`` negative;
    a negative age must never rank a peer's file as *fresher than now*,
    so freshness comparisons all go through this clamp.
    """
    return max(0.0, (time.time() if now is None else now) - mtime)


class HostLedger:
    """Claim/heartbeat marker files shared by cooperating hosts.

    All state is files under ``root`` (normally ``<cache>/.hosts``):
    ``<host>.heartbeat`` proves a host recently alive; ``<digest>.claim``
    records that a host owns one cell, with owner identity inside
    (host id, pid, machine) for the reaping rules above.
    """

    def __init__(
        self,
        root: Union[str, Path],
        host_id: Optional[str] = None,
        heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.host_id = host_id or default_host_id()
        self.heartbeat_ttl = heartbeat_ttl
        self.machine = platform.node() or "unknown"

    # -- heartbeat ----------------------------------------------------------

    def heartbeat_path(self, host_id: Optional[str] = None) -> Path:
        return self.root / f"{host_id or self.host_id}.heartbeat"

    def beat(self) -> None:
        """Refresh this host's heartbeat (file mtime is the signal)."""
        self.heartbeat_path().write_text(
            json.dumps({"host": self.host_id, "pid": os.getpid(), "machine": self.machine})
        )

    def hosts(self) -> List[str]:
        """Host ids with a fresh heartbeat (including this host's, if beaten)."""
        now = time.time()
        alive = []
        for path in sorted(self.root.glob("*.heartbeat")):
            try:
                if file_age(path.stat().st_mtime, now) <= self.heartbeat_ttl:
                    alive.append(path.name[: -len(".heartbeat")])
            except FileNotFoundError:
                continue
        return alive

    # -- claims -------------------------------------------------------------

    def claim_path(self, token: str) -> Path:
        return self.root / f"{token}.claim"

    def claim(self, token: str) -> bool:
        """Atomically claim one cell; ``False`` if a peer holds it."""
        try:
            fd = os.open(self.claim_path(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(
                fd,
                json.dumps(
                    {
                        "host": self.host_id,
                        "pid": os.getpid(),
                        "machine": self.machine,
                        "cell": token,
                    }
                ).encode(),
            )
        finally:
            os.close(fd)
        return True

    def release(self, token: str) -> None:
        """Release a claim (the result must already be published)."""
        try:
            self.claim_path(token).unlink()
        except FileNotFoundError:  # pragma: no cover - reaped under us
            pass

    def read_claim(self, token: str) -> Optional[Dict[str, object]]:
        """The claim's owner record, or ``None`` (missing/unreadably fresh)."""
        try:
            return json.loads(self.claim_path(token).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None

    def _claim_stale(self, token: str) -> bool:
        """Whether a claim's owner is provably dead (reaping rule)."""
        path = self.claim_path(token)
        try:
            claim_age = file_age(path.stat().st_mtime)
        except FileNotFoundError:
            return False  # already released or reaped
        owner = self.read_claim(token)
        if owner is not None:
            if owner.get("host") == self.host_id and int(owner.get("pid", -1)) == os.getpid():
                return False  # our own live claim
            # same machine: the pid probe is authoritative and immediate
            if owner.get("machine") == self.machine:
                try:
                    return not pid_alive(int(owner.get("pid", -1)))
                except (TypeError, ValueError):
                    pass  # damaged record: fall through to the TTL rule
        # cross-machine (or unreadable claim): dead only when both the
        # heartbeat and the claim file itself outlived the TTL -- a fresh
        # claim file is proof of a live re-claim even mid-heartbeat
        if claim_age <= self.heartbeat_ttl:
            return False
        heartbeat_age = float("inf")
        if owner is not None:
            try:
                heartbeat_age = file_age(
                    self.heartbeat_path(str(owner.get("host"))).stat().st_mtime
                )
            except (FileNotFoundError, OSError):
                pass
        return heartbeat_age > self.heartbeat_ttl

    def reap_stale(self, tokens: Sequence[str]) -> int:
        """Remove claims of provably dead owners; returns the count reaped."""
        reaped = 0
        for token in tokens:
            if not self._claim_stale(token):
                continue
            record = self.read_claim(token) or {}
            try:
                self.claim_path(token).unlink()
            except FileNotFoundError:
                continue  # a peer's reaper won the race -- their count
            owner = str(record.get("host", "unknown"))
            logger.warning("reaped stale claim %s (owner %s dead)", token, owner)
            emit_event("claim-reaped", cell=token, owner=owner, by=self.host_id)
            reaped += 1
        if reaped:
            obs_registry().counter("sched.reaped_claims").inc(reaped)
        return reaped


@dataclass
class CoopScheduler:
    """Multi-host mode switch carried by a :class:`Runner` (``runner.coop``).

    Attaching one reroutes :meth:`Runner.run_cells`' uncached cells
    through :func:`drain_cooperative`.  ``claim_batch`` bounds how many
    cells this host claims per round (elasticity knob: smaller batches
    leave more work unclaimed for late-joining hosts); ``poll_interval``
    is the ledger re-poll cadence while peers hold all remaining cells.
    """

    ledger: HostLedger
    claim_batch: int = DEFAULT_CLAIM_BATCH
    poll_interval: float = DEFAULT_POLL_INTERVAL


def drain_cooperative(
    runner,
    cells: Sequence[Cell],
    jobs: int = 1,
) -> Iterator[Tuple[Cell, "SimulationResult"]]:
    """Drain uncached ``cells`` cooperatively; yields ``(cell, result)``.

    Repeats until every cell is resolved: adopt peer-published results
    from the shared cache, reap claims of dead hosts, claim up to
    ``claim_batch`` unclaimed cells (longest-predicted-first) and run
    them through the runner's ordinary pipeline -- publish, release,
    yield -- then sleep ``poll_interval`` when peers hold everything
    that remains.  Requires a disk-backed result cache (the cache *is*
    the inter-host result channel).
    """
    from repro.core.costmodel import make_cost_model

    coop = runner.coop
    if coop is None:
        raise ValueError("drain_cooperative requires runner.coop to be set")
    if runner.cache is None:
        raise ValueError("cooperative scheduling requires a disk result cache")
    ledger = coop.ledger
    report = runner.report
    report.host_id = ledger.host_id
    ledger.beat()

    # longest-predicted-first claim order: every host walks the same
    # ranking, so the expensive cells start earliest on *some* host and
    # claim collisions just advance a host down the list
    model = make_cost_model(runner.timing_store())
    report.cost_model_kind = getattr(model, "kind", "heuristic")
    ranked = sorted(
        cells,
        key=lambda cell: model.estimate(cell[0], cell[1], runner.config.num_branches),
        reverse=True,
    )
    remaining: Dict[str, Cell] = {
        runner._digest(workload, name, overrides): (workload, name, overrides)
        for workload, name, overrides in ranked
    }
    emit_event("coop-start", host=ledger.host_id, cells=len(remaining))
    logger.info(
        "host %s joining: %d uncached cells, peers=%s",
        ledger.host_id,
        len(remaining),
        ",".join(h for h in ledger.hosts() if h != ledger.host_id) or "none",
    )

    #: claims this host currently holds (claimed, not yet released) --
    #: released unconditionally on exit so an interrupt, an error, or an
    #: abandoned iterator can never leak claim files that peers would
    #: otherwise wait a full heartbeat TTL to reap
    held: Dict[str, Cell] = {}
    try:
        while remaining:
            # 1. adopt results peers have published since the last round
            for digest in list(remaining):
                workload, name, overrides = remaining[digest]
                published = runner.lookup_cached(workload, name, overrides)
                if published is not None:
                    del remaining[digest]
                    report.record_peer_result()
                    obs_registry().counter("sched.peer_results").inc()
                    emit_event(
                        "peer-result", host=ledger.host_id, workload=workload, config=name
                    )
                    yield (workload, name, overrides), published
            if not remaining:
                break

            # 2. make dead hosts' cells claimable again
            reaped = ledger.reap_stale(list(remaining))
            if reaped:
                report.record_reap(reaped)

            # 3. claim a batch: the anchor in insertion (= predicted-cost)
            # order, then prefer peers of the anchor's (workload, shared
            # base) -- cells this host will execute as one batched group
            # over a single base pass / persisted base stream -- topping up
            # in ranked order only when same-base peers run out
            from repro.core.batched import base_config as base_config_of

            claimed: List[Tuple[str, Cell]] = []
            batch_cap = max(1, coop.claim_batch)
            anchor_key: Optional[Tuple[str, object]] = None
            for digest, cell in remaining.items():
                if len(claimed) >= batch_cap:
                    break
                base = base_config_of(cell[1], runner.config.scale)
                key = (cell[0], base) if base is not None else None
                if claimed and (anchor_key is None or key != anchor_key):
                    continue
                if ledger.claim(digest):
                    claimed.append((digest, cell))
                    held[digest] = cell
                    if len(claimed) == 1:
                        anchor_key = key
            if len(claimed) < batch_cap:
                won = {digest for digest, _ in claimed}
                for digest, cell in remaining.items():
                    if len(claimed) >= batch_cap:
                        break
                    if digest in won:
                        continue
                    if ledger.claim(digest):
                        claimed.append((digest, cell))
                        held[digest] = cell
            ledger.beat()

            if not claimed:
                # peers hold everything left: wait for publishes or reapable
                # deaths, heartbeating so *our* claims stay protected
                obs_registry().counter("sched.wait_rounds").inc()
                time.sleep(max(0.01, coop.poll_interval))
                continue

            report.record_claim(len(claimed))
            obs_registry().counter("sched.claims").inc(len(claimed))
            predicted: List[float] = []
            for digest, (workload, name, _) in claimed:
                emit_event(
                    "cell-claim", host=ledger.host_id, workload=workload, config=name
                )
                predicted.append(
                    model.estimate(workload, name, runner.config.num_branches)
                )

            # 4. simulate through the ordinary pipeline (coop disabled so the
            # recursive run_cells call executes instead of re-claiming); the
            # runner publishes each result to the shared cache before run_cells
            # returns, so release-after-return preserves publish-before-release.
            # An error or interrupt inside run_cells leaves the claims in
            # ``held``; the outer finally hands those cells back to the peers.
            runner.coop = None
            before = [report.cell(*cell).seconds for _, cell in claimed]
            preds_before = len(report.predictions)
            try:
                results = runner.run_cells([cell for _, cell in claimed], jobs=jobs)
            finally:
                runner.coop = coop
            if len(report.predictions) == preds_before:
                # serial inner path: the pool scheduler didn't score these
                # cells, so score the claim-time predictions here
                for (_, cell), guess, prev in zip(claimed, predicted, before):
                    actual = report.cell(*cell).seconds - prev
                    if actual > 0.0:
                        report.record_prediction(guess, actual)
            for (digest, cell), result in zip(claimed, results):
                ledger.release(digest)
                held.pop(digest, None)
                del remaining[digest]
                yield cell, result
            ledger.beat()
    finally:
        if held:
            # interrupt (Ctrl-C / job cancellation closing this generator)
            # or error with claims still held: this host stays alive, so
            # nothing would ever reap them -- release immediately instead
            # of leaking the claim files until the heartbeat TTL expires.
            # Completed cells were published before their release above,
            # so every claim released here is safe to re-claim.
            for digest in list(held):
                ledger.release(digest)
            logger.warning(
                "released %d unfinished claims held by %s", len(held), ledger.host_id
            )
            emit_event("claims-released", host=ledger.host_id, count=len(held))
            obs_registry().counter("sched.released_claims").inc(len(held))
            held.clear()

    emit_event("coop-done", host=ledger.host_id)

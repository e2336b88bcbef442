"""Experiment service daemon: HTTP round-trips, quotas, cancellation.

These tests run the real asyncio HTTP server on an ephemeral port with
the real executor drain thread -- only the clock-sensitive quota test
stubs the executor (to hold a job in the running state deterministically
instead of racing a timer).
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.core import Runner, RunnerConfig
from repro.core.results_io import result_to_dict
from repro.service import (
    ExperimentService,
    ServiceClient,
    ServiceError,
    ServiceServer,
)

BRANCHES = 6_000
SCALE = 8
WORKLOADS = ["kafka", "chirper"]
CONFIGS = ["tsl_64k", "llbp"]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    service = ExperimentService(tmp / "cache", branches=BRANCHES, scale=SCALE)
    srv = ServiceServer(service, port=0)
    srv.start_background()
    yield srv
    srv.stop_background()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}")


def test_round_trip_bit_identical(client):
    """submit -> poll -> fetch returns exactly what run_matrix returns."""
    job = client.submit({"workloads": WORKLOADS, "configs": CONFIGS})
    assert job["state"] in ("queued", "running")
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"
    assert len(final["cells"]) == len(WORKLOADS) * len(CONFIGS)
    assert final["report"]["simulations"] == len(final["cells"])
    assert final["report"]["interrupted"] is False

    direct = Runner(RunnerConfig(scale=SCALE, num_branches=BRANCHES)).run_matrix(
        WORKLOADS, CONFIGS
    )
    for cell in final["cells"]:
        fetched = client.result(cell["digest"])
        expected = direct[cell["workload"]][cell["config"]]
        assert result_to_dict(fetched) == result_to_dict(expected)


def test_concurrent_clients_share_without_duplicate_work(server):
    """Two clients with overlapping matrices: every unique cell simulates once."""
    url = f"http://127.0.0.1:{server.port}"
    specs = [
        {"workloads": ["kafka"], "configs": ["tsl_8k", "tsl_16k"]},
        {"workloads": ["kafka"], "configs": ["tsl_16k", "tsl_32k"]},  # tsl_16k overlaps
    ]
    finals = [None, None]

    def submit_and_wait(index):
        own_client = ServiceClient(url)
        job = own_client.submit(specs[index])
        finals[index] = own_client.wait(job["id"], timeout=300)

    threads = [threading.Thread(target=submit_and_wait, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert all(final is not None and final["state"] == "done" for final in finals)

    unique_digests = {cell["digest"] for final in finals for cell in final["cells"]}
    assert len(unique_digests) == 3  # tsl_16k shared
    total_simulations = sum(final["report"]["simulations"] for final in finals)
    assert total_simulations == len(unique_digests)  # zero duplicate simulations

    checker = ServiceClient(url)
    for digest in unique_digests:
        assert checker.result(digest).mpki >= 0.0


def test_malformed_specs_rejected_with_400(client):
    bad_specs = [
        ["not", "an", "object"],
        {},
        {"workloads": [], "configs": CONFIGS},
        {"workloads": ["no-such-workload"], "configs": CONFIGS},
        {"workloads": WORKLOADS, "configs": ["no-such-config"]},
        {"workloads": WORKLOADS, "configs": CONFIGS, "branches": -5},
        {"workloads": WORKLOADS, "configs": CONFIGS, "backend": "quantum"},
        {"workloads": WORKLOADS, "configs": CONFIGS, "frobnicate": 1},
    ]
    for spec in bad_specs:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400, spec


def test_unparseable_body_and_unknown_routes(server, client):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request(
        "POST", "/jobs", body=b"{not json", headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    conn.close()

    with pytest.raises(ServiceError) as excinfo:
        client.job("job-999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.result("0" * 32)
    assert excinfo.value.status == 404


def test_torn_event_stream_tolerated(server, client):
    """A torn tail line in the event file must not break the stream."""
    job = client.submit({"workloads": ["kafka"], "configs": CONFIGS})
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"

    # simulate a writer killed mid-line: garbage tail in the sink file
    with open(server.service.sink.path, "a", encoding="utf-8") as handle:
        handle.write('{"ts": 1.0, "type": "job-cell", "job": "' + job["id"])

    events = client.events(job["id"])
    kinds = [event["type"] for event in events]
    assert kinds.count("job-cell") == len(CONFIGS)
    assert kinds[-1] == "job-done"
    # the cursor resumes past already-seen events
    tail = client.events(job["id"], after=events[-2]["seq"])
    assert [event["type"] for event in tail] == ["job-done"]


def test_quota_rejects_with_429_until_released(tmp_path):
    """quota=1: a tenant's second active job is rejected; others are not."""
    service = ExperimentService(tmp_path / "cache", branches=BRANCHES, scale=SCALE, quota=1)
    hold = threading.Event()
    real_execute = service._execute

    def gated_execute(job):  # hold jobs in `running` deterministically
        hold.wait(60)
        real_execute(job)

    service._execute = gated_execute
    srv = ServiceServer(service, port=0)
    srv.start_background()
    try:
        client = ServiceClient(f"http://127.0.0.1:{srv.port}")
        spec = {"workloads": ["kafka"], "configs": ["tsl_64k"]}
        first = client.submit(spec)

        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)  # same (default) tenant: over quota
        assert excinfo.value.status == 429

        other = client.submit(spec, tenant="other-team")  # different tenant: fine
        assert other["spec"]["tenant"] == "other-team"

        client.cancel(first["id"])
        client.cancel(other["id"])
        hold.set()
        final = client.wait(first["id"], timeout=60)
        assert final["state"] == "cancelled"
        # quota released: the tenant can submit again
        again = client.submit(spec)
        final = client.wait(again["id"], timeout=300)
        assert final["state"] == "done"
    finally:
        hold.set()
        srv.stop_background()


def test_healthz_reports_observability_fields(server, client):
    health = client.health()
    assert health["ok"] is True
    assert health["queue_depth"] >= 0
    assert isinstance(health["jobs"], dict)
    assert health["uptime_seconds"] > 0
    before = health["ledger_records"]

    job = client.submit({"workloads": ["kafka"], "configs": ["tsl_8k"]})
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"
    assert final["cells_done"] == 1

    after = client.health()
    assert after["ledger_records"] == before + 1
    assert after["jobs"].get("done", 0) >= 1


def test_service_jobs_append_ledger_records(server, client):
    before = server.service.ledger.count()
    job = client.submit({"workloads": ["chirper"], "configs": ["tsl_8k"]})
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"
    record = server.service.ledger.records()[-1]
    assert server.service.ledger.count() == before + 1
    assert record["source"] == "service"
    assert record["context"]["job"] == job["id"]
    assert record["context"]["tenant"] == "default"
    assert record["report"]["totals"]["cells"] == 1


def test_progress_endpoint(server, client):
    job = client.submit({"workloads": ["kafka"], "configs": CONFIGS})
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"
    progress = client.progress(job["id"])
    assert progress["state"] == "done"
    assert progress["cells_done"] == progress["cells_total"] == len(CONFIGS)
    assert progress["eta_seconds"] is None
    assert progress["branches_per_sec"] > 0

    with pytest.raises(ServiceError) as excinfo:
        client.progress("job-999999")
    assert excinfo.value.status == 404


def test_metrics_endpoint_prometheus_under_live_job(tmp_path):
    """/metrics is valid Prometheus text while a job is queued/running."""
    service = ExperimentService(tmp_path / "cache", branches=BRANCHES, scale=SCALE)
    hold = threading.Event()
    real_execute = service._execute

    def gated_execute(job):
        hold.wait(60)
        real_execute(job)

    service._execute = gated_execute
    srv = ServiceServer(service, port=0)
    srv.start_background()

    def metric_value(text, name):
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    try:
        client = ServiceClient(f"http://127.0.0.1:{srv.port}")
        # the metrics registry is process-global: compare deltas, not totals
        wait_before = metric_value(client.metrics(), "repro_jobs_wait_seconds_count")
        exec_before = metric_value(client.metrics(), "repro_jobs_exec_seconds_count")
        spec = {"workloads": ["kafka"], "configs": ["tsl_8k"]}
        first = client.submit(spec, tenant="metrics-team")
        second = client.submit(spec, tenant="metrics-team")  # stays queued

        text = client.metrics()
        lines = text.splitlines()
        assert "# TYPE repro_jobs_queue_depth gauge" in lines
        assert "repro_jobs_queue_depth 1" in lines
        assert "repro_service_uptime_seconds" in text
        assert 'repro_jobs_tenant{tenant="metrics-team",state="queued"} 1' in lines
        assert 'repro_jobs_tenant{tenant="metrics-team",state="running"} 1' in lines
        assert any('_bucket{le="' in line for line in lines)
        # every non-comment line is `name[{labels}] value`
        for line in lines:
            if line.startswith("#"):
                assert line.startswith("# TYPE "), line
                continue
            name, value = line.rsplit(" ", 1)
            float(value)

        # content type is the Prometheus text exposition
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert "text/plain" in response.getheader("Content-Type", "")
        response.read()
        conn.close()

        hold.set()
        assert client.wait(first["id"], timeout=300)["state"] == "done"
        assert client.wait(second["id"], timeout=300)["state"] == "done"
        # histograms observed job wait + exec latency
        text = client.metrics()
        assert metric_value(text, "repro_jobs_wait_seconds_count") == wait_before + 2
        assert metric_value(text, "repro_jobs_exec_seconds_count") == exec_before + 2
        assert "repro_jobs_queue_depth 0" in text.splitlines()
    finally:
        hold.set()
        srv.stop_background()


def test_terminal_event_poll_returns_immediately(server, client):
    """A long-poll against a finished job must not sleep out its wait."""
    job = client.submit({"workloads": ["kafka"], "configs": ["tsl_8k"]})
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"

    start = time.monotonic()
    events = client.events(job["id"], after=0, wait=30)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"terminal long-poll slept {elapsed:.1f}s"
    assert events[-1]["type"] == "job-done"

    # past-the-end cursor: empty body, immediate, cursor echoed in header
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    start = time.monotonic()
    conn.request("GET", f"/jobs/{job['id']}/events?after=999999&wait=30")
    response = conn.getresponse()
    body = response.read()
    elapsed = time.monotonic() - start
    conn.close()
    assert response.status == 200
    assert body == b""
    assert elapsed < 5.0, f"empty terminal long-poll slept {elapsed:.1f}s"
    assert int(response.getheader("X-Repro-Cursor")) >= 999999


def test_startup_compacts_dead_telemetry(tmp_path):
    """Service start rolls dead-pid event/metrics files into merged segments."""
    events_dir = tmp_path / "events"
    events_dir.mkdir()
    (events_dir / "events-424242.jsonl").write_text(
        json.dumps({"ts": 1.0, "type": "job-cell", "job": "job-000001", "seq": 1}) + "\n"
    )
    (events_dir / "metrics-424242.json").write_text(
        json.dumps({"counters": {"stale": 1.0}, "gauges": {}, "histograms": {}})
    )
    service = ExperimentService(
        tmp_path / "cache", events_dir=events_dir, branches=BRANCHES, scale=SCALE
    )
    service.start()
    try:
        assert not (events_dir / "events-424242.jsonl").exists()
        assert (events_dir / "events-merged.jsonl").exists()
        from repro.obs.events import read_events

        merged = read_events(events_dir, where={"job": "job-000001"})
        assert [event["seq"] for event in merged] == [1]
    finally:
        service.stop()


def test_cancellation_releases_multihost_claims(tmp_path):
    """Cancelling a running join-mode job must leave zero claim files."""
    hosts_dir = tmp_path / "hosts"
    service = ExperimentService(
        tmp_path / "cache",
        branches=100_000,  # slow enough that cancel lands mid-run
        scale=SCALE,
        join=True,
        hosts_dir=hosts_dir,
        claim_batch=1,  # cell-granular claims: the cancel check fires per cell
    )
    srv = ServiceServer(service, port=0)
    srv.start_background()
    try:
        client = ServiceClient(f"http://127.0.0.1:{srv.port}")
        job = client.submit({"workloads": WORKLOADS, "configs": ["tsl_64k", "llbp", "tsl_8k"]})
        # long-poll until the first cell completes, then cancel: at least
        # four of the six cells are still pending (each takes ~1s)
        events = client.events(job["id"], wait=60)
        assert any(event["type"] == "job-cell" for event in events)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert final["report"]["interrupted"] is True
        assert list(hosts_dir.glob("*.claim")) == []  # nothing left claimed
        # completed cells were published before the cancel and stay servable
        served = 0
        for cell in final["cells"]:
            try:
                client.result(cell["digest"])
                served += 1
            except ServiceError as exc:
                assert exc.status == 404
        assert 0 < served < len(final["cells"])
    finally:
        srv.stop_background()

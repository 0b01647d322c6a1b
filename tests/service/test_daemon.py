"""Integration tests for the daemon's HTTP API via the client."""

from __future__ import annotations

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ExperimentService


@pytest.fixture()
def service(tmp_path):
    svc = ExperimentService(tmp_path / "runs", port=0, workers=1)
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture()
def client(service) -> ServiceClient:
    return ServiceClient(service.url)


def test_health_reports_version(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["version"]


def test_submit_watch_events_metrics_roundtrip(service, client, small_submission):
    """The acceptance-criteria loop: submit -> watch -> result entirely
    over the HTTP API, with /metrics reflecting the run."""
    record = client.submit(small_submission.to_dict())
    assert record["status"] == "queued"

    updates = []
    final = client.watch(
        record["id"], poll_seconds=0.1, timeout=300,
        on_update=updates.append,
    )
    assert final["status"] == "completed"
    assert final["result"]["epochs_trained"] > 0
    assert final["checkpoint"]["epochs_trained"] > 0
    assert len(updates) >= 2  # at least queued/running + terminal

    listed = client.list_experiments()
    assert [entry["id"] for entry in listed] == [record["id"]]
    assert "result" not in listed[0]  # list view omits the heavy payload

    events = client.events(record["id"])
    kinds = {event["kind"] for event in events}
    assert {"submitted", "configs", "checkpoint", "audit", "result"} <= kinds
    offset = len(events) - 1
    assert len(client.events(record["id"], offset=offset)) == 1

    metrics = client.metrics_text()
    assert "service_experiments_submitted_total 1" in metrics
    assert 'service_experiments_finished_total{status="completed"} 1' in metrics
    epochs_line = next(
        line for line in metrics.splitlines()
        if line.startswith("service_epochs_trained_total")
    )
    assert float(epochs_line.split()[-1]) == final["result"]["epochs_trained"]


def test_cancel_queued_experiment(service, client, small_submission):
    """With a single worker busy, a second submission stays queued and
    cancels deterministically through DELETE."""
    first = client.submit(small_submission.to_dict())
    second = client.submit(small_submission.to_dict())
    cancelled = client.cancel(second["id"])
    assert cancelled["status"] in ("cancelled", "running")
    final_second = client.watch(second["id"], poll_seconds=0.1, timeout=300)
    assert final_second["status"] == "cancelled"
    # the busy worker's experiment still completes
    assert (
        client.watch(first["id"], poll_seconds=0.1, timeout=300)["status"]
        == "completed"
    )


def test_unknown_experiment_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.get("exp-does-not-exist")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.events("exp-does-not-exist")
    assert excinfo.value.status == 404


def test_invalid_submission_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"workload": "nonsense"})
    assert excinfo.value.status == 400
    assert "unknown workload" in str(excinfo.value)
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"bogus_field": 1})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"predict_workers": 2})
    assert excinfo.value.status == 400
    assert "unknown submission fields: predict_workers" in str(excinfo.value)


def test_unknown_route_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._request_json("GET", "/nope")
    assert excinfo.value.status == 404


def test_unreachable_daemon_raises_service_error():
    client = ServiceClient("http://127.0.0.1:1", timeout=1.0)
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.status == 0


def test_telemetry_endpoint_tracks_runs(service, client, small_submission):
    # Before any run: no experiment nodes — only the daemon's own
    # registry, self-ingested as node "service" (broker gauges for
    # `repro top`).
    empty = client.telemetry()
    assert set(empty["nodes"]) <= {"service"}

    record = client.submit(small_submission.to_dict())
    client.watch(record["id"], poll_seconds=0.1, timeout=300)

    telemetry = client.telemetry()
    # The executor ingests the run's registry under its experiment id.
    node = telemetry["nodes"][record["id"]]
    families = node["metrics"]
    epochs = sum(
        s["value"] for s in families["scheduler_epochs_total"]["samples"]
    )
    assert epochs > 0
    assert node["meta"]["status"] == "running"
    assert any(
        sample["node"] == record["id"] for sample in telemetry["history"]
    )

    # /metrics is the merged export: service-level families unlabelled,
    # the run's families tagged with its experiment id.
    metrics = client.metrics_text()
    assert "service_experiments_submitted_total 1" in metrics
    assert f'scheduler_epochs_total{{node="{record["id"]}"}}' in metrics

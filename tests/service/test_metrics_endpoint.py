"""End-to-end tests of ``GET /metrics`` and the enriched ``GET /status``.

A real in-process daemon on a loopback port is scraped exactly like a
Prometheus server would scrape it: raw HTTP, text exposition parsing, no
shortcuts through the app object.  The JSON variant
(``/metrics?format=json``) and the per-job metric snapshots in result
payloads are covered too.
"""

from __future__ import annotations

import re
import urllib.request

from repro.service.jobs import JOB_STATES

# Label values may contain braces (route="/jobs/{job_id}"), so the label
# block is matched greedily up to the last closing brace before the value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9+][0-9eE.+-]*$"
)


def _scrape_text(client):
    """Fetch /metrics as a scraper would: raw body plus the content type."""
    with urllib.request.urlopen(client.base + "/metrics", timeout=30) as resp:
        return resp.read().decode("utf-8"), resp.headers.get("Content-Type")


def test_metrics_exposition_is_valid_prometheus(daemon):
    _, client = daemon
    # Generate some traffic first so HTTP counters exist.
    assert client.get("/status")[0] == 200
    text, content_type = _scrape_text(client)
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    helps = set()
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP "):
            helps.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), line
    assert "repro_http_requests_total" in helps
    assert "repro_uptime_seconds" in helps
    assert "repro_queue_depth" in helps


def test_metrics_track_http_requests_by_route(daemon):
    _, client = daemon
    for _ in range(3):
        assert client.get("/status")[0] == 200
    assert client.get("/jobs/nope")[0] == 404
    text, _ = _scrape_text(client)
    match = re.search(
        r'repro_http_requests_total\{.*route="/status".*\} (\d+)', text
    )
    assert match and int(match.group(1)) >= 3
    # Error responses are counted too, labelled by their status code.
    assert re.search(
        r'repro_http_requests_total\{.*status="404"\} \d+', text
    )


def test_metrics_json_variant(daemon):
    _, client = daemon
    status, body = client.get("/metrics?format=json")
    assert status == 200
    assert body["version"] == 1
    assert body["context"] == {"service": "repro-atpg"}
    assert set(body["metrics"]) == {"counters", "timers", "histograms", "gauges"}
    gauges = body["metrics"]["gauges"]
    assert gauges["repro_uptime_seconds"] >= 0
    assert gauges["repro_queue_paused"] == 0
    # Every lifecycle state appears as a zero-filled jobs_state gauge.
    for state in JOB_STATES:
        assert f'repro_jobs_state{{state="{state}"}}' in gauges


def test_finished_job_feeds_campaign_counters_into_metrics(daemon):
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 2, "seed": 3})
    assert client.wait(job_id)["status"] == "done"

    text, _ = _scrape_text(client)
    match = re.search(r'repro_faults_total\{status="tested"\} (\d+)', text)
    assert match and int(match.group(1)) > 0
    assert re.search(r'repro_jobs_total\{state="done"\} 1\b', text)

    # The job's own snapshot rides along in its result payload.
    result = client.result(job_id)
    metrics = result["metrics"]
    assert metrics["version"] == 1
    assert metrics["context"]["job_id"] == job_id
    assert len(metrics["fault_costs"]) > 0
    counters = metrics["metrics"]["counters"]
    assert sum(
        value for key, value in counters.items()
        if key.startswith("repro_faults_total")
    ) == len(metrics["fault_costs"])


def test_time_limited_job_keeps_its_fault_costs(daemon):
    """A serial time-limited job reports one cost record per targeted fault."""
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 1, "time_limit_s": 60})
    assert client.wait(job_id)["status"] == "done"
    result = client.result(job_id)
    targeted = result["campaign"]["targeted"]
    assert targeted > 0
    assert len(result["metrics"]["fault_costs"]) == targeted


def test_status_reports_uptime_states_and_queue(daemon):
    _, client = daemon
    status, body = client.get("/status")
    assert status == 200
    assert body["uptime_s"] >= 0
    assert body["queue_depth"] == 0
    assert body["paused"] is False
    assert set(body["jobs"]) == set(JOB_STATES)
    assert all(count == 0 for count in body["jobs"].values())

    job_id = client.submit({"circuit": "s27", "jobs": 1, "seed": 3})
    client.wait(job_id)
    _, body = client.get("/status")
    assert body["jobs"]["done"] == 1
    assert sum(body["jobs"].values()) == 1

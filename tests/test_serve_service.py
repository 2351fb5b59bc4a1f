"""HTTP end-to-end: a real ``repro serve`` subprocess, real sockets.

One server instance per module (startup costs a process spawn), an
ephemeral port discovered through ``server.json``, and the stdlib client
the CLI itself uses.  Asserts the full loop -- submit over HTTP, worker
executes, result fetched back -- returns bit-identical documents to the
in-process executors, plus the protocol edges (dedup, 400s, 404s, 409s,
cancel) and the /metrics exposition.
"""

import subprocess
import sys
import time

import pytest

from repro.isa.programs import PROGRAM_STEP_BUDGET, SAMPLE_STEP_BUDGET
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import run_job
from repro.serve.server import endpoint_for

SPEC = {"type": "program", "program": "dot_product", "n": 40}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    queue_dir = str(tmp_path_factory.mktemp("serve") / "queue")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--queue-dir", queue_dir, "--port", "0", "--workers", "1",
            "--lease-ttl", "10", "--reap-interval", "0.3",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    client = None
    try:
        deadline = time.monotonic() + 30.0
        while client is None:
            endpoint = endpoint_for(queue_dir)
            if endpoint:
                candidate = ServeClient(
                    f"http://{endpoint['host']}:{endpoint['port']}"
                )
                try:
                    candidate.healthz()
                    candidate.queue_dir = queue_dir
                    client = candidate
                except ServeError:
                    pass
            if client is None:
                if time.monotonic() > deadline:
                    proc.kill()
                    out = proc.stdout.read().decode("utf-8", "replace")
                    raise RuntimeError(f"serve did not come up:\n{out}")
                time.sleep(0.05)
        yield client
    finally:
        try:
            ServeClient(f"http://{client.host}:{client.port}").stop()
        except Exception:
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)


def test_submit_execute_fetch_is_bit_identical(service):
    submitted = service.submit(dict(SPEC))
    assert submitted["created"] is True
    record = service.wait(submitted["id"], timeout=60.0)
    assert record["state"] == "done"
    assert service.result(submitted["id"]) == run_job(dict(SPEC))


def test_duplicate_submission_is_deduplicated(service):
    first = service.submit(dict(SPEC))
    again = service.submit(dict(SPEC))
    assert again["id"] == first["id"]
    assert again["created"] is False


def test_result_before_done_conflicts(service):
    # The delay keeps the job un-done long enough to observe the 409;
    # the worker then finishes it normally (cancel of a *running* job
    # would not abort it -- execution is monolithic by design).
    slow = service.submit({"type": "program", "program": "saxpy",
                           "n": 8, "delay": 2.0})
    with pytest.raises(ServeError) as excinfo:
        service.result(slow["id"])
    assert excinfo.value.status == 409
    record = service.wait(slow["id"], timeout=60.0)
    assert record["state"] == "done"


def test_cancel_queued_job(service):
    # One worker, two slow jobs: whichever is still queued when we look
    # is cancellable before execution starts.
    a = service.submit({"type": "program", "program": "saxpy",
                        "n": 9, "delay": 3.0})
    b = service.submit({"type": "program", "program": "saxpy",
                        "n": 10, "delay": 3.0})
    states = {job_id: service.job(job_id)["state"]
              for job_id in (a["id"], b["id"])}
    queued = [job_id for job_id, state in states.items()
              if state == "queued"]
    assert queued, f"both jobs already past queued: {states}"
    victim = queued[-1]
    outcome = service.cancel(victim)
    assert outcome["state"] == "cancelled"
    assert service.wait(victim, timeout=60.0)["state"] == "cancelled"
    # Drain the survivor so later tests see an idle worker.
    for job_id in (a["id"], b["id"]):
        if job_id != victim:
            service.wait(job_id, timeout=60.0)


def test_malformed_specs_rejected(service):
    for bad in (
        {"type": "nope"},
        {"type": "program", "program": "no-such-program"},
        {"type": "program", "program": "saxpy", "typo": 1},
        {"type": "experiment", "experiment": "no-such-table"},
        {"type": "fuzz", "max_events": 32},
        {"type": "program", "program": "saxpy", "n": float("inf")},
        {"type": "program", "program": "saxpy", "n": float("nan")},
        {"type": "program", "program": "saxpy", "n": 2.7},
        {"type": "program", "program": "saxpy", "n": 10**400},
        {"type": "program", "program": "saxpy", "n": PROGRAM_STEP_BUDGET + 1},
        {"type": "sample", "program": "saxpy", "n": SAMPLE_STEP_BUDGET + 1},
        {"type": "fuzz", "timeout": float("nan")},
        {"type": "fuzz", "timeout": 0},
        {"type": "fuzz", "timeout": -1.0},
        {"type": "fuzz", "delay": float("nan")},
        {"type": "fuzz", "delay": float("inf")},
        {"type": "fuzz", "delay": -1.0},
    ):
        with pytest.raises(ServeError) as excinfo:
            service.submit(bad)
        assert excinfo.value.status == 400
    # A table the worker could not build, or one past figure3's largest
    # (8192 entries): rejected at submit, naming the field.
    for field, table in (
        ("entries", {"entries": 33}),
        ("entries", {"entries": 2**40}),
        ("ways", {"ways": 3}),
        ("ways", {"entries": 32, "ways": 64}),
    ):
        with pytest.raises(ServeError) as excinfo:
            service.submit({"type": "program", "program": "saxpy", **table})
        assert excinfo.value.status == 400
        assert repr(field) in str(excinfo.value)
    # An n no run could finish within the step budget (saxpy spends at
    # least 11 steps per element): rejected at submit, naming 'n'.
    for kind, budget in (
        ("program", PROGRAM_STEP_BUDGET), ("sample", SAMPLE_STEP_BUDGET)
    ):
        for n in (budget // 11 + 1, 1000000):
            with pytest.raises(ServeError) as excinfo:
                service.submit({"type": kind, "program": "saxpy", "n": n})
            assert excinfo.value.status == 400
            assert "'n'" in str(excinfo.value)
    largest = {"type": "program", "program": "saxpy", "n": 8,
               "entries": 8192, "ways": 4}
    record = service.wait(service.submit(largest)["id"], timeout=60.0)
    assert record["state"] == "done"


def test_unknown_job_404s(service):
    with pytest.raises(ServeError) as excinfo:
        service.job("doesnotexist0000")
    assert excinfo.value.status == 404


def test_jobs_listing_and_state_filter(service):
    done = service.submit(dict(SPEC))
    service.wait(done["id"], timeout=60.0)
    rows = service.jobs()
    assert any(row["id"] == done["id"] for row in rows)
    for row in service.jobs(state="done"):
        assert row["state"] == "done"


def test_metrics_exposition(service):
    done = service.submit(dict(SPEC))
    service.wait(done["id"], timeout=60.0)
    text = service.metrics_text()
    for series in (
        "repro_serve_queue_depth",
        "repro_serve_jobs_submitted_total",
        "repro_serve_jobs_completed_total",
        "repro_serve_workers_alive",
        "repro_span_serve_queue_latency_seconds_total",
        "repro_span_serve_job_seconds_total",
    ):
        assert series in text, f"missing {series}"
    # Prometheus text format: the exporter's section TYPE headers.
    assert "# TYPE repro_counter counter" in text


def test_verify_fuzz_submit_flag(service, monkeypatch, capsys):
    """`repro verify fuzz --submit` runs the campaign through the service."""
    from repro.verify.cli import main as verify_main

    monkeypatch.setenv("REPRO_QUEUE_DIR", service.queue_dir)
    status = verify_main(
        ["fuzz", "--submit", "--budget", "5", "--max-events", "48"]
    )
    out = capsys.readouterr().out
    assert status == 0, out
    assert "submitted" in out
    assert "fuzz campaign: 5 cases" in out


def test_healthz_reports_workers_and_counts(service):
    health = service.healthz()
    assert health["ok"] is True
    assert health["workers"] >= 1
    assert isinstance(health["counts"], dict)

"""Bytes in, bytes out: a worker gets the raw request body and sends back
the reply bytes it encoded.

The daemon parses a compute request's body only in its key job, off the
event loop, and not at all on a body-hash memo hit; the worker that runs
the op parses the same bytes with the same parser.  On an idle daemon the
early run's job is on the worker's pipe before the key job starts to parse.
A body nested deeper than the decoder recurses is refused 400 like any other
malformed body, by every parser that meets it.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import threading
import time

import pytest

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams
from repro.server import app as app_mod
from repro.server import workers as workers_mod
from repro.server.protocol import ProtocolError, parse_body

DEEP = b"[" * 100_000
TOO_DEEP = "request body is not valid JSON: nested too deeply to parse"


def _post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _server(harness) -> dict:
    return harness.client.metrics()["server"]


def _until(check, what: str, seconds: float = 15.0) -> None:
    deadline = time.monotonic() + seconds
    while not check():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _settled(harness) -> None:
    """Nothing in flight, and every worker alive and never restarted."""
    _until(lambda: _server(harness)["in_flight"] == 0, "the runs to end")
    workers = harness.client.healthz()["workers"]
    assert workers["alive"] == workers["size"] and workers["restarts"] == 0, workers


def _recorded_outcomes(harness, monkeypatch) -> list[tuple]:
    """The outcome tuple of every job the pool runs."""
    pool = harness.daemon.pool
    run = pool.run
    outcomes: list[tuple] = []

    async def recording(*args, **kwargs):
        outcome = await run(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(pool, "run", recording)
    return outcomes


# --------------------------------------------------------------------- #
# the one body parser
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "body, message",
    [
        (DEEP, TOO_DEEP),
        (b'{"project": ' * 50_000, TOO_DEEP),
        (b'{"project": ', "request body is not valid JSON: Expecting value"),
        (b"\xff{}", "request body is not valid JSON: 'utf-8' codec can't decode"),
        (b"[1, 2]", "request body must be a JSON object"),
        (b"7", "request body must be a JSON object"),
    ],
)
def test_the_body_parser_refuses_all_but_a_json_object(body, message):
    with pytest.raises(ProtocolError) as err:
        parse_body(body)
    assert str(err.value).startswith(message), str(err.value)


def test_an_empty_body_is_an_empty_object():
    assert parse_body(b"") == {}
    assert parse_body(b'{"a": [1]}') == {"a": [1]}


# --------------------------------------------------------------------- #
# a deeply nested body is a 400 at every door, and costs no worker
# --------------------------------------------------------------------- #
def test_a_deeply_nested_compute_body_is_400_and_its_early_run_a_user_error(
    daemon_factory, monkeypatch
):
    """An idle daemon hands the body to a worker before its key job refuses
    it: the request is 400, counted, and the worker's parse of the same
    bytes is a user error, not a crash."""
    harness = daemon_factory(workers=1)
    outcomes = _recorded_outcomes(harness, monkeypatch)
    status, body = _post(harness.daemon.port, "/schedule", DEEP)
    assert status == 400
    doc = json.loads(body)
    assert (doc["kind"], doc["message"]) == ("bad-request", TOO_DEEP)
    _settled(harness)
    server = _server(harness)
    assert server["bad_requests"] == 1 and server["by_endpoint"]["/schedule"] == 1
    assert (server["ran_early"], server["ran_early_unneeded"]) == (1, 1)
    assert outcomes == [("user_error", "ProtocolError", TOO_DEEP)]


@pytest.mark.parametrize("workers", [0, 2])
def test_a_deeply_nested_body_is_400_at_every_route(daemon_factory, workers):
    harness = daemon_factory(workers=workers)
    for path in ("/schedule", "/lint", "/conform", "/projects/a/b"):
        status, body = _post(harness.daemon.port, path, DEEP)
        assert status == 400, path
        doc = json.loads(body)
        assert (doc["kind"], doc["message"]) == ("bad-request", TOO_DEEP), path
        _settled(harness)
    assert _server(harness)["bad_requests"] == 4


def test_a_full_daemon_refuses_a_malformed_compute_body_503_first(daemon_factory):
    """Admission comes before a compute body is parsed; a ``/projects`` body
    is still parsed, and refused 400, before the queue check."""
    harness = daemon_factory(workers=1, debug=True, queue_limit=1)
    holder = threading.Thread(
        target=_post,
        args=(harness.daemon.port, "/debug/sleep", b'{"seconds": 1.0}'),
    )
    holder.start()
    try:
        _until(lambda: _server(harness)["in_flight"] == 1, "the sleep")
        assert _post(harness.daemon.port, "/schedule", b"[1, 2]")[0] == 503
        assert _post(harness.daemon.port, "/schedule", DEEP)[0] == 503
        assert _post(harness.daemon.port, "/projects/a/b", b"[1, 2]")[0] == 400
    finally:
        holder.join(timeout=30)
    assert not holder.is_alive()
    status, body = _post(harness.daemon.port, "/schedule", b"[1, 2]")
    assert status == 400
    assert json.loads(body)["message"] == "request body must be a JSON object"
    _settled(harness)


# --------------------------------------------------------------------- #
# one parse per process
# --------------------------------------------------------------------- #
def _counted_parses(monkeypatch, log: pathlib.Path) -> None:
    """Append ``site pid thread`` to ``log`` for every body parse: ``key``
    for the daemon's key job, ``worker`` for a job a worker (or the inline
    thread) serves.  Patch before the daemon starts: forked workers inherit
    it."""
    for module, site in ((app_mod, "key"), (workers_mod, "worker")):
        def counted(body, real=module.parse_body, site=site):
            with log.open("a") as out:
                out.write(f"{site} {os.getpid()} {threading.current_thread().name}\n")
            return real(body)

        monkeypatch.setattr(module, "parse_body", counted)


def _parses(log: pathlib.Path) -> list[list[str]]:
    text = log.read_text() if log.exists() else ""
    return sorted(line.split(" ", 2) for line in text.splitlines())


@pytest.mark.parametrize("workers", [1, 0])
def test_each_process_parses_a_new_body_once_and_a_repeat_never(
    daemon_factory, project_doc, monkeypatch, tmp_path, workers
):
    log = tmp_path / "parses"
    _counted_parses(monkeypatch, log)
    harness = daemon_factory(workers=workers)
    body = json.dumps({"project": project_doc, "scheduler": "etf"}).encode()

    first = _post(harness.daemon.port, "/schedule", body)
    assert first[0] == 200
    _settled(harness)
    (key, key_pid, key_thread), (worker, worker_pid, worker_thread) = _parses(log)
    assert (key, worker) == ("key", "worker")
    assert int(key_pid) == os.getpid() and key_thread.startswith("banger-keys")
    if workers:
        assert int(worker_pid) != os.getpid()
    else:
        assert int(worker_pid) == os.getpid()
        assert worker_thread.startswith("banger-inline")

    log.unlink()
    assert _post(harness.daemon.port, "/schedule", body) == first
    assert _parses(log) == []
    assert _server(harness)["cache_hits"] == 1


# --------------------------------------------------------------------- #
# the handoff comes before the key
# --------------------------------------------------------------------- #
def test_an_idle_daemon_writes_the_job_before_its_key_job_parses(
    daemon_factory, monkeypatch
):
    """Ten sequential edits of a ~1 MB design, each run early: every job's
    pipe write has returned before its key job starts to parse."""
    params = MachineParams(msg_startup=0.2, transmission_rate=20.0)
    design = (
        BangerProject("edits")
        .set_design(as_dataflow(random_layered(150, 10, seed=2)))
        .set_machine("hypercube", 8, params)
        .to_dict()
    )
    harness = daemon_factory(workers=1)
    events: list[str] = []
    for slot in harness.daemon.pool._slots:
        def sending(job, send=slot._conn.send):
            send(job)
            events.append("sent")

        slot._conn.send = sending

    def parsing(body, real=app_mod.parse_body):
        events.append("parse")
        return real(body)

    monkeypatch.setattr(app_mod, "parse_body", parsing)
    for i in range(10):
        body = json.dumps({"project": {**design, "name": f"edit-{i}"}}).encode()
        assert len(body) > 500_000
        assert _post(harness.daemon.port, "/schedule", body)[0] == 200
    assert _server(harness)["ran_early"] == 10
    assert events == ["sent", "parse"] * 10
    _settled(harness)


def test_a_run_that_never_reaches_a_worker_releases_its_key(
    daemon_factory, project_doc
):
    """The only worker died while idle: the early run fails before its
    write, and the key it would have held up is computed all the same."""
    harness = daemon_factory(workers=1)
    slot = harness.daemon.pool._slots[0]
    slot._proc.kill()
    slot._proc.join(timeout=10)
    status, body = _post(
        harness.daemon.port, "/schedule", json.dumps({"project": project_doc}).encode()
    )
    assert status == 500 and json.loads(body)["kind"] == "worker-crash"
    server = _server(harness)
    assert (server["ran_early"], server["worker_crashes"]) == (1, 1)
    assert harness.client.healthz()["workers"]["alive"] == 1
    assert harness.client.schedule(project_doc)["makespan"] > 0

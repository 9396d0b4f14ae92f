"""Bytes in, bytes out: a worker gets the raw request body and sends back
the reply bytes it encoded.

The daemon never parses a compute request's body: the worker that runs it
does, once, and a response cache hit needs no parse at all.  A body
nested deeper than the decoder recurses is refused 400 like any other
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

from repro.server import app as app_mod
from repro.server import memo as memo_mod
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
def test_a_deeply_nested_compute_body_is_400_refused_by_its_worker(
    daemon_factory, monkeypatch
):
    """The worker that would run the body refuses its parse: the request is
    400, counted, and the worker's outcome is a user error, not a crash."""
    harness = daemon_factory(workers=1)
    outcomes = _recorded_outcomes(harness, monkeypatch)
    status, body = _post(harness.daemon.port, "/schedule", DEEP)
    assert status == 400
    doc = json.loads(body)
    assert (doc["kind"], doc["message"]) == ("bad-request", TOO_DEEP)
    assert doc["detail"] == "ProtocolError"
    _settled(harness)
    server = _server(harness)
    assert server["bad_requests"] == 1 and server["by_endpoint"]["/schedule"] == 1
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
# one parse, in the worker
# --------------------------------------------------------------------- #
def _counted_parses(monkeypatch, log: pathlib.Path) -> None:
    """Append ``pid thread`` to ``log`` for every body a worker (or the
    inline thread) reads: each reads through its request memo's reader.
    Patch before the daemon starts: forked workers inherit it."""
    def counted(body, kept=None, real=memo_mod.read_body):
        with log.open("a") as out:
            out.write(f"{os.getpid()} {threading.current_thread().name}\n")
        return real(body, kept)

    monkeypatch.setattr(memo_mod, "read_body", counted)


def _parses(log: pathlib.Path) -> list[list[str]]:
    text = log.read_text() if log.exists() else ""
    return [line.split(" ", 1) for line in text.splitlines()]


@pytest.mark.parametrize("workers", [1, 0])
def test_each_process_parses_a_new_body_once_and_a_repeat_never(
    daemon_factory, project_doc, monkeypatch, tmp_path, workers
):
    """A new body is parsed once, by the worker that runs it; the daemon
    parses nothing, and an exact repeat is answered unparsed."""
    log = tmp_path / "parses"
    _counted_parses(monkeypatch, log)
    monkeypatch.setattr(app_mod, "parse_body", None)  # the daemon never parses it
    harness = daemon_factory(workers=workers)
    body = json.dumps({"project": project_doc, "scheduler": "etf"}).encode()

    first = _post(harness.daemon.port, "/schedule", body)
    assert first[0] == 200
    _settled(harness)
    [(pid, thread)] = _parses(log)
    if workers:
        assert int(pid) != os.getpid()
    else:
        assert int(pid) == os.getpid() and thread.startswith("banger-inline")

    log.unlink()
    assert _post(harness.daemon.port, "/schedule", body) == first
    assert _parses(log) == []
    assert _server(harness)["cache_hits"] == 1


def test_a_run_that_never_reaches_a_worker_releases_its_key(
    daemon_factory, project_doc
):
    """The only worker died while idle: the job fails before its write, the
    request is 500, and the same bytes are computed next time."""
    harness = daemon_factory(workers=1)
    slot = harness.daemon.pool._slots[0]
    slot._proc.kill()
    slot._proc.join(timeout=10)
    body = json.dumps({"project": project_doc}).encode()
    status, reply = _post(harness.daemon.port, "/schedule", body)
    assert status == 500 and json.loads(reply)["kind"] == "worker-crash"
    assert _server(harness)["worker_crashes"] == 1
    assert harness.client.healthz()["workers"]["alive"] == 1
    status, reply = _post(harness.daemon.port, "/schedule", body)
    assert status == 200 and json.loads(reply)["makespan"] > 0

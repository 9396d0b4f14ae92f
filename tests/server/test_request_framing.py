"""A request body has one framing: ``Content-Length``.

A daemon that ignored ``Transfer-Encoding`` read a chunked body as empty
and then the chunk-size line as a new request: two replies to one request,
the desync a proxy in front would be smuggled through.  Such a request, and
one with two ``Content-Length`` headers that differ, is answered one 400
and its connection closed.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.server.protocol import BufferedConn, ProtocolError, read_request


class _Reader:
    """``StreamReader.read`` over fixed bytes."""

    def __init__(self, data: bytes):
        self._data, self._at = data, 0

    async def read(self, n: int) -> bytes:
        piece = self._data[self._at:self._at + n]
        self._at += len(piece)
        return piece


def _read(head: str, body: bytes = b""):
    raw = head.replace("\n", "\r\n").encode("latin-1") + body
    return asyncio.run(read_request(BufferedConn(_Reader(raw))))


def _chunked(body: bytes) -> bytes:
    return b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)


@pytest.mark.parametrize("encoding", ["chunked", "gzip, chunked", "identity"])
def test_a_transfer_encoding_is_refused(encoding):
    with pytest.raises(ProtocolError, match="Transfer-Encoding is not supported"):
        _read(f"POST /lint HTTP/1.1\nTransfer-Encoding: {encoding}\n\n", _chunked(b"{}"))


def test_a_transfer_encoding_beside_a_content_length_is_refused():
    with pytest.raises(ProtocolError, match="Transfer-Encoding"):
        _read("POST /lint HTTP/1.1\nContent-Length: 2\nTransfer-Encoding: chunked\n\n",
              _chunked(b"{}"))


def test_two_content_lengths_that_differ_are_refused():
    with pytest.raises(ProtocolError, match="conflicting Content-Length"):
        _read("POST /lint HTTP/1.1\nContent-Length: 2\ncontent-length: 3\n\n", b"{}x")


def test_two_equal_content_lengths_are_one():
    request = _read("POST /lint HTTP/1.1\nContent-Length: 2\nContent-Length: 2\n\n", b"{}")
    assert request.body == b"{}"


def _exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` and read until the daemon closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=15) as raw:
        raw.sendall(data)
        received = b""
        while chunk := raw.recv(65536):
            received += chunk
    return received


@pytest.mark.parametrize("framing", ["chunked", "two lengths"])
def test_the_daemon_answers_one_400_and_closes(daemon_factory, project_doc, framing):
    harness = daemon_factory(workers=0)
    body = json.dumps({"project": project_doc}).encode()
    if framing == "chunked":
        head = "Transfer-Encoding: chunked\r\n"
        sent = _chunked(body)
    else:
        head = f"Content-Length: {len(body)}\r\nContent-Length: 0\r\n"
        sent = body
    received = _exchange(harness.daemon.port, (
        f"POST /lint HTTP/1.1\r\nHost: x\r\n{head}\r\n").encode() + sent)
    assert received.count(b"HTTP/1.1 ") == 1, received[:400]
    status, _, rest = received.partition(b"\r\n")
    assert status == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in rest
    error = json.loads(rest.split(b"\r\n\r\n", 1)[1])
    assert error["kind"] == "bad-request"
    # the daemon is still there for the next client
    assert harness.client.lint(project_doc)["type"] == "banger-lint"

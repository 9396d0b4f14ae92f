"""``BufferedConn`` reads a large body in linear time, framing unchanged.

The daemon reads a request in 4 KiB pieces.  Appending each piece to an
immutable ``bytes`` buffer re-copies everything read so far, so a 1 MB body
cost 277 copies of a growing buffer on the event loop.  The pieces the fake
reader hands out here count what appending them copies, so the test does not
depend on the clock.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server.protocol import (
    MAX_HEADER_BYTES,
    BufferedConn,
    ProtocolError,
    read_request,
)


class Piece(bytes):
    """A ``bytes`` that counts the bytes copied when it is appended.

    ``buffer += piece`` on an immutable ``bytes`` buffer builds a new object
    out of both operands; Python asks the right operand's ``__radd__`` first
    (it is a subclass), so that copy is seen and performed here.  A mutable
    buffer that extends in place copies only the piece: declining with
    ``NotImplemented`` hands the append back to it.
    """

    copied = 0

    def __radd__(self, left):
        if isinstance(left, bytes):
            Piece.copied += len(left) + len(self)
            return bytes(left) + bytes(self)
        Piece.copied += len(self)
        return NotImplemented


class FakeReader:
    """``StreamReader.read`` over a fixed byte string, one piece per call."""

    def __init__(self, data: bytes):
        self._data = memoryview(data)
        self._at = 0

    async def read(self, n: int) -> bytes:
        piece = Piece(self._data[self._at : self._at + n])
        self._at += len(piece)
        return piece


def _request(body: bytes, path: str = "/schedule") -> bytes:
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def test_an_8_mb_body_is_copied_a_bounded_number_of_times():
    body = bytes(range(256)) * (8 * 1024 * 1024 // 256)
    Piece.copied = 0
    conn = BufferedConn(FakeReader(_request(body)))
    request = asyncio.run(read_request(conn))
    assert request.body == body and request.path == "/schedule"
    # appended once, taken out once: nowhere near once per 4 KiB read
    assert Piece.copied <= 3 * len(body), Piece.copied / len(body)


def test_piece_counting_convicts_an_immutable_buffer():
    """The counter is not vacuous: the old ``bytes`` accumulation trips it."""
    Piece.copied = 0
    buf = b""
    for _ in range(64):
        buf += Piece(b"x" * 4096)
    assert len(buf) == 64 * 4096
    assert Piece.copied > 30 * len(buf)


def test_pipelined_requests_keep_their_framing():
    first, second = b'{"a": 1}', b'{"b": [2, 3]}' * 1000
    stream = _request(first, "/lint") + b"\r\n" + _request(second, "/sweep")
    conn = BufferedConn(FakeReader(stream))

    async def both():
        return await read_request(conn), await read_request(conn), await read_request(conn)

    one, two, end = asyncio.run(both())
    assert (one.path, one.body) == ("/lint", first)
    assert (two.path, two.body) == ("/sweep", second)
    assert end is None


def test_peek_and_push_back_leave_the_next_request_intact():
    conn = BufferedConn(FakeReader(_request(b"{}", "/healthz")[5:]))

    async def run():
        seen = await conn.peek()  # swallows the start of the next request
        assert seen and await conn.peek() == seen  # buffered: no second read
        conn.push_back(b"POST ")
        return await read_request(conn)

    request = asyncio.run(run())
    assert (request.method, request.path, request.body) == ("POST", "/healthz", b"{}")


def test_peek_reports_a_closed_peer():
    assert asyncio.run(BufferedConn(FakeReader(b"")).peek()) == b""


@pytest.mark.parametrize(
    "stream, message",
    [
        (_request(b"x" * 100)[:-40], "connection closed mid-body (60/100 bytes)"),
        (b"POST /lint HTTP/1.1\r\nContent-Le", "connection closed mid-line"),
        (b"GET /" + b"a" * (MAX_HEADER_BYTES + 8192), "header line too long"),
    ],
)
def test_truncated_and_oversized_input_is_a_protocol_error(stream, message):
    with pytest.raises(ProtocolError, match=message.replace("(", r"\(").replace(")", r"\)")):
        asyncio.run(read_request(BufferedConn(FakeReader(stream))))

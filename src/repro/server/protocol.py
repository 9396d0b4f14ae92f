"""Minimal HTTP/1.1 framing for the banger daemon (stdlib only).

The daemon speaks just enough HTTP to serve JSON to any stock client
(``curl``, ``http.client``, a browser): request-line + headers +
``Content-Length`` bodies, keep-alive connections, and chunked-free
responses.  No TLS, no multipart, no compression — the daemon sits behind
a reverse proxy in any real deployment, exactly like the multi-tier
run-time assistants it is modelled on.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError, error_document
from repro.sched.serialize import encode_json

#: Reject bodies larger than this (a design JSON is kilobytes; anything
#: bigger is a mistake or an attack).
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

#: The subset of status lines the daemon emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ReproError):
    """Malformed HTTP framing; the connection is answered 400 and closed."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


def parse_body(body: bytes) -> dict[str, Any]:
    """A request body as the JSON object it must be; empty is ``{}``.

    The one body parser: the daemon's ``/projects`` and debug routes and
    the worker that runs an op all call it.  Anything else — bytes that
    are not UTF-8 JSON, nesting deeper than the decoder recurses, an array
    or a scalar — is a :class:`ProtocolError`, answered 400 whichever
    process parsed it.
    """
    if not body:
        return {}
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError(
            "request body is not valid JSON: nested too deeply to parse"
        ) from None
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    return doc


class BufferedConn:
    """A :class:`~asyncio.StreamReader` with push-back.

    The daemon peeks at the socket while a response is being computed to
    notice client disconnects; any bytes that peek swallows (an eager
    client's next request) are pushed back here so framing stays intact.
    """

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        # A bytearray: each 4 KiB read is appended in place, so a body of
        # n bytes is copied O(n), not once per read.
        self._buf = bytearray()

    def push_back(self, data: bytes) -> None:
        self._buf[:0] = data

    def _take(self, n: int) -> bytes:
        """Remove and return the first ``n`` buffered bytes."""
        with memoryview(self._buf) as view:
            data = bytes(view[:n])
        del self._buf[:n]
        return data

    async def peek(self) -> bytes:
        """Read whatever arrives next; ``b''`` means the peer closed."""
        if self._buf:
            return bytes(self._buf)
        data = await self._reader.read(4096)
        self.push_back(data)
        return data

    async def _fill(self) -> bool:
        data = await self._reader.read(4096)
        if not data:
            return False
        self._buf += data
        return True

    async def read_line(self, limit: int = MAX_HEADER_BYTES) -> bytes | None:
        """One CRLF-terminated line, or ``None`` on clean EOF at a boundary."""
        while (end := self._buf.find(b"\n")) < 0:
            if len(self._buf) > limit:
                raise ProtocolError("header line too long")
            if not await self._fill():
                if self._buf:
                    raise ProtocolError("connection closed mid-line")
                return None
        return self._take(end + 1)[:-1].rstrip(b"\r")

    async def read_exactly(self, n: int) -> bytes:
        while len(self._buf) < n:
            if not await self._fill():
                raise ProtocolError(
                    f"connection closed mid-body ({len(self._buf)}/{n} bytes)"
                )
        return self._take(n)


async def read_request(conn: BufferedConn) -> Request | None:
    """Parse one request; ``None`` when the client closed between requests."""
    line = await conn.read_line()
    if line is None:
        return None
    if not line:  # tolerate a stray blank line between pipelined requests
        line = await conn.read_line()
        if not line:
            return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(f"malformed request line: {line[:80]!r}") from None

    headers: dict[str, str] = {}
    total = 0
    while True:
        raw = await conn.read_line()
        if raw is None:
            raise ProtocolError("connection closed inside headers")
        if not raw:
            break
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError("headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    length = headers.get("content-length", "0")
    try:
        n = int(length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length!r}") from None
    if n < 0 or n > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length: {n}")
    body = await conn.read_exactly(n) if n else b""
    path = target.split("?", 1)[0]
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def encode_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one complete HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def json_body(doc: Any) -> bytes:
    """The daemon's canonical response encoding (sorted keys, compact).

    A reply's top-level bytes value is a part already so encoded
    (:func:`repro.sched.serialize.encode_json`), spliced in as it is.
    """
    return encode_json(doc)


def error_body(kind: str, message: str, **extra: Any) -> bytes:
    return json_body(error_document(kind, message, **extra))

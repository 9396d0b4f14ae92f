"""A thin blocking client for the banger daemon.

Wraps :mod:`http.client` — no third-party dependencies — with one
connection per thread (keep-alive reuse) and typed errors.  This is what
the test suite and the server benchmark drive the daemon with, and the
shape any notebook/script integration would take::

    from repro.client import BangerClient

    client = BangerClient(port=8045)
    doc = client.schedule(project.to_dict(), scheduler="mh")
    print(doc["makespan"])

Every compute call posts a JSON body and returns the decoded JSON
response.  Non-2xx answers raise :class:`ServerError` carrying the HTTP
status and the daemon's structured error document.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any

from repro.errors import ReproError

DEFAULT_TIMEOUT = 60.0


class ClientError(ReproError):
    """The daemon could not be reached (connection refused, timeout...)."""


class ServerError(ReproError):
    """The daemon answered with a non-2xx status.

    Attributes
    ----------
    status:
        The HTTP status code (400, 500, 503, 504...).
    doc:
        The daemon's decoded error document (``{"type": "banger-error",
        "kind": ..., "message": ...}``), or ``{}`` if the body was not JSON.
    retry_after:
        Seconds from the ``Retry-After`` header (403 quota rejections and
        503 backpressure carry it), or ``None``.
    """

    def __init__(self, status: int, doc: dict[str, Any],
                 retry_after: float | None = None):
        self.status = status
        self.doc = doc
        self.retry_after = retry_after
        kind = doc.get("kind", "error")
        message = doc.get("message", "(no message)")
        super().__init__(f"daemon answered {status} ({kind}): {message}")


class BangerClient:
    """Blocking JSON client, one keep-alive connection per thread."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8045,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's connection (others close when their thread dies)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One round-trip; retries once on a stale keep-alive connection."""
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else b""
        )
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                # A keep-alive connection the daemon already closed surfaces
                # here; one reconnect distinguishes that from a dead daemon.
                self.close()
                if attempt == 2:
                    raise ClientError(
                        f"cannot reach banger daemon at "
                        f"{self.host}:{self.port}: {exc}"
                    ) from exc
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            doc = {}
        if response.status >= 300:
            retry_after: float | None = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ServerError(
                response.status,
                doc if isinstance(doc, dict) else {},
                retry_after=retry_after,
            )
        return doc

    def post(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        return self.request("POST", path, payload)

    def get(self, path: str) -> dict[str, Any]:
        return self.request("GET", path)

    # ------------------------------------------------------------------ #
    # endpoint wrappers
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, Any]:
        return self.get("/healthz")

    def metrics(self) -> dict[str, Any]:
        return self.get("/metrics")

    def lint(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/lint", {"project": project, **options})

    def schedule(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/schedule", {"project": project, **options})

    def speedup(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/speedup", {"project": project, **options})

    def sweep(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/sweep", {"project": project, **options})

    def simulate(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/simulate", {"project": project, **options})

    def codegen(self, project: dict[str, Any], **options: Any) -> dict[str, Any]:
        return self.post("/codegen", {"project": project, **options})

    def conform(self, **options: Any) -> dict[str, Any]:
        return self.post("/conform", dict(options))

    # ------------------------------------------------------------------ #
    # project store: each parameter is the payload field of its name, sent as
    # given (null = left out); the daemon alone types, defaults and refuses
    # ------------------------------------------------------------------ #
    def projects(self, tenant: str | None = None) -> dict[str, Any]:
        """Tenants in the store, or one tenant's projects."""
        return self.get("/projects" if tenant is None else f"/projects/{tenant}")

    def project_put(
        self,
        tenant: str,
        name: str,
        project: dict[str, Any],
        message: str = "",
        scenario: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        return self.post(f"/projects/{tenant}/{name}", {
            "project": project, "message": message, "scenario": scenario,
        })

    def project_get(
        self, tenant: str, name: str, version: int | None = None
    ) -> dict[str, Any]:
        path = f"/projects/{tenant}/{name}"
        if version is not None:
            path += f"/v/{version}"
        return self.get(path)

    def project_log(self, tenant: str, name: str) -> dict[str, Any]:
        return self.get(f"/projects/{tenant}/{name}/log")

    def project_diff(
        self,
        tenant: str,
        name: str,
        version_a: int | None = None,
        version_b: int | None = None,
        to_tenant: str | None = None,
        to_name: str | None = None,
    ) -> dict[str, Any]:
        return self.post(f"/projects/{tenant}/{name}/diff", {
            "version_a": version_a, "version_b": version_b,
            "to_tenant": to_tenant, "to_name": to_name,
        })

    def project_fork(
        self,
        tenant: str,
        name: str,
        to_tenant: str,
        to_name: str,
        version: int | None = None,
        message: str = "",
    ) -> dict[str, Any]:
        return self.post(f"/projects/{tenant}/{name}/fork", {
            "to_tenant": to_tenant, "to_name": to_name,
            "version": version, "message": message,
        })

    def store_gc(self, max_bytes: int | None = None) -> dict[str, Any]:
        return self.post("/projects/gc", {"max_bytes": max_bytes})


def wait_until_ready(
    host: str = "127.0.0.1",
    port: int = 8045,
    timeout: float = 10.0,
    interval: float = 0.05,
) -> BangerClient:
    """Poll ``/healthz`` until the daemon answers; return a ready client.

    Raises :class:`ClientError` if the daemon is not up within ``timeout``
    seconds — used by tests and the benchmark right after spawning
    ``banger serve``.
    """
    client = BangerClient(host=host, port=port, timeout=min(timeout, 5.0))
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            doc = client.healthz()
            if doc.get("ok"):
                client.timeout = DEFAULT_TIMEOUT
                return client
        except (ClientError, ServerError, socket.error) as exc:
            last = exc
        time.sleep(interval)
    raise ClientError(
        f"banger daemon at {host}:{port} not ready after {timeout:g}s: {last}"
    )

"""The project-store HTTP surface: ``/projects/...`` → repository calls.

Pure request mapping, no I/O of its own: :func:`store_request` takes the
already-parsed method/path/payload, drives one
:class:`~repro.store.repository.ProjectRepository` operation, and returns
``(status, document)``.  The daemon runs it off the event loop; tests can
drive it directly.

Routes (the reader framing strips query strings, so everything is a
subpath)::

    GET  /projects                       tenants + store stats
    GET  /projects/<t>                   one tenant's projects
    GET  /projects/<t>/<n>               head version record
    GET  /projects/<t>/<n>/v/<N>         pinned version record
    GET  /projects/<t>/<n>/log           full version history
    GET  /projects/<t>/<n>/diff/<a>/<b>  delta between two versions
    POST /projects/<t>/<n>               put {project, message?, scenario?}
    POST /projects/<t>/<n>/fork          {to_tenant, to_name, version?, message?}
    POST /projects/<t>/<n>/diff          {version_a?, version_b?, to_tenant?, to_name?}
    POST /projects/gc                    {max_bytes?}

Failure mapping: a quota violation is **403** (with ``Retry-After`` added
by the daemon, mirroring 503 backpressure); an unknown tenant/project/
version/blob is **404**; anything malformed is **400**; a store that is
corrupt or cannot be written is **500** — not the caller's fault.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    QuotaExceeded,
    StoreCorruption,
    StoreError,
    StoreNotFound,
    StoreWriteError,
)
from repro.store.repository import ProjectRepository


def _error(kind: str, message: str, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "type": "banger-error", "kind": kind, "message": message,
    }
    doc.update(extra)
    return doc


def _record(
    repo: ProjectRepository, tenant: str, name: str, version: int | None
) -> dict[str, Any]:
    entry = repo.refs.resolve(tenant, name, version)
    manifest = repo.blobs.get(entry["manifest"])
    return {
        "type": "banger-project-record",
        "tenant": tenant,
        "name": name,
        "version": entry["v"],
        "message": entry.get("message", ""),
        "manifest": entry["manifest"],
        "project": manifest["project"],
        "document": repo.get(tenant, name, entry["v"]),
        "scenario": (
            repo.blobs.get(manifest["scenario"])
            if manifest.get("scenario")
            else None
        ),
    }


def _version_arg(raw: Any, what: str = "version") -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise StoreError(f"bad {what} {raw!r}: expected an integer") from None


def _get(repo: ProjectRepository, rest: list[str]) -> dict[str, Any]:
    if not rest:
        return {
            "type": "banger-projects",
            "tenants": repo.refs.tenants(),
            "stats": repo.stats(),
        }
    tenant = rest[0]
    if len(rest) == 1:
        if tenant not in repo.refs.tenants():
            raise StoreNotFound(f"no tenant {tenant!r} in the store")
        projects = []
        for name in repo.refs.projects(tenant):
            head = repo.refs.head(tenant, name)
            projects.append(
                {"name": name, "version": head["v"], "manifest": head["manifest"]}
            )
        return {
            "type": "banger-projects",
            "tenant": tenant,
            "projects": projects,
        }
    name = rest[1]
    tail = rest[2:]
    if not tail:
        return _record(repo, tenant, name, None)
    if tail[0] == "v" and len(tail) == 2:
        return _record(repo, tenant, name, _version_arg(tail[1]))
    if tail == ["log"]:
        return {
            "type": "banger-project-log",
            "tenant": tenant,
            "name": name,
            "versions": repo.log(tenant, name),
        }
    if tail[0] == "diff" and len(tail) == 3:
        delta = repo.diff(
            tenant, name, _version_arg(tail[1]), _version_arg(tail[2])
        )
        return {"type": "banger-project-diff", **delta}
    raise StoreNotFound(f"no such projects route: /{'/'.join(['projects'] + rest)}")


def _post(
    repo: ProjectRepository, rest: list[str], payload: dict[str, Any]
) -> dict[str, Any]:
    if rest == ["gc"]:
        max_bytes = payload.get("max_bytes")
        result = repo.gc(
            _version_arg(max_bytes, "max_bytes") if max_bytes is not None else None
        )
        return {"type": "banger-store-gc", **result}
    if len(rest) < 2:
        raise StoreError("POST needs /projects/<tenant>/<name>")
    tenant, name, tail = rest[0], rest[1], rest[2:]
    if not tail:
        project = payload.get("project")
        if not isinstance(project, dict):
            raise StoreError("payload must carry a 'project' document")
        scenario = payload.get("scenario")
        if scenario is not None and not isinstance(scenario, dict):
            raise StoreError("'scenario' must be a JSON object when given")
        info = repo.put(
            tenant, name, project,
            message=str(payload.get("message", "")),
            scenario=scenario,
        )
        return {"type": "banger-project-put", **info}
    if tail == ["fork"]:
        to_tenant = payload.get("to_tenant", tenant)
        to_name = payload.get("to_name")
        if not isinstance(to_name, str) or not to_name:
            raise StoreError("fork payload must carry a 'to_name'")
        version = payload.get("version")
        info = repo.fork(
            tenant, name, str(to_tenant), to_name,
            version=_version_arg(version) if version is not None else None,
            message=str(payload.get("message", "")),
        )
        return {"type": "banger-project-fork", **info}
    if tail == ["diff"]:
        va, vb = payload.get("version_a"), payload.get("version_b")
        delta = repo.diff(
            tenant, name,
            _version_arg(va) if va is not None else None,
            _version_arg(vb) if vb is not None else None,
            to_tenant=payload.get("to_tenant"),
            to_name=payload.get("to_name"),
        )
        return {"type": "banger-project-diff", **delta}
    raise StoreNotFound(f"no such projects route: /{'/'.join(['projects'] + rest)}")


def store_request(
    repo: ProjectRepository,
    method: str,
    path: str,
    payload: dict[str, Any],
) -> tuple[int, dict[str, Any]]:
    """Serve one ``/projects`` request; returns ``(status, document)``."""
    rest = [part for part in path.split("/") if part][1:]  # drop "projects"
    try:
        if method == "GET":
            return 200, _get(repo, rest)
        if method == "POST":
            return 200, _post(repo, rest, payload)
        return 405, _error(
            "method-not-allowed", "/projects routes accept GET and POST"
        )
    except QuotaExceeded as exc:
        return 403, _error(
            "quota-exceeded", str(exc),
            tenant=exc.tenant, quota=exc.quota, usage=exc.usage,
        )
    except StoreNotFound as exc:
        return 404, _error("not-found", str(exc))
    except (StoreCorruption, StoreWriteError) as exc:
        return 500, _error("internal", str(exc))
    except StoreError as exc:
        return 400, _error("bad-request", str(exc))

"""The project-store driver: ``/projects/...`` and ``banger projects`` →
repository calls.

One function per action takes the repository, the split ref and a plain
mapping of options — the daemon's payload, or the CLI's parsed flags — types
them through :func:`repro.server.ops._option`, drives one
:class:`~repro.store.repository.ProjectRepository` operation and returns the
reply document; the CLI renders it as text.  :func:`store_request` routes an
already-parsed method/path/payload onto them and returns ``(status,
document)``; the daemon runs it off the event loop, tests drive it directly.

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

Failure mapping (:data:`FAILURES`): a quota violation is **403** (with
``Retry-After`` added by the daemon, mirroring 503 backpressure); an unknown
tenant/project/version/blob is **404**; anything malformed is **400**; a store
that is corrupt or cannot be written is **500** — not the caller's fault.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    QuotaExceeded,
    ReproError,
    StoreCorruption,
    StoreError,
    StoreNotFound,
    StoreWriteError,
    error_document,
)
from repro.server.ops import OpError, _option, whole
from repro.store.refs import parse_version
from repro.store.repository import ProjectRepository

Doc = dict[str, Any]

#: Failure class -> (HTTP status, error kind, ``banger projects`` exit code);
#: the first row an exception is an instance of classifies it on both doors.
FAILURES: tuple[tuple[Any, int, str, int], ...] = (
    (QuotaExceeded, 403, "quota-exceeded", 1),
    (StoreNotFound, 404, "not-found", 1),
    ((StoreCorruption, StoreWriteError), 500, "internal", 1),
    ((StoreError, OpError), 400, "bad-request", 2),  # an unusable request
)


def failure(exc: ReproError) -> tuple[int, str, int]:
    """``(status, kind, exit code)`` of a store or option error."""
    return next(row[1:] for row in FAILURES if isinstance(exc, row[0]))


# --------------------------------------------------------------------- #
# the actions: repository + split ref + raw options -> the reply document
# --------------------------------------------------------------------- #
def _version(raw: Doc, field: str = "version") -> int | None:
    return _option(raw, field, whole, "a whole number")


def list_tenants(repo: ProjectRepository) -> Doc:
    return {
        "type": "banger-projects",
        "tenants": repo.refs.tenants(),
        "stats": repo.stats(),
    }


def list_projects(repo: ProjectRepository, tenant: str) -> Doc:
    if tenant not in repo.refs.tenants():
        raise StoreNotFound(f"no tenant {tenant!r} in the store")
    projects = []
    for name in repo.refs.projects(tenant):
        head = repo.refs.head(tenant, name)
        projects.append(
            {"name": name, "version": head["v"], "manifest": head["manifest"],
             "message": head.get("message", "")}
        )
    return {
        "type": "banger-projects",
        "tenant": tenant,
        "projects": projects,
    }


def record(repo: ProjectRepository, tenant: str, name: str, raw: Doc) -> Doc:
    return {"type": "banger-project-record", **repo.record(tenant, name, _version(raw))}


def log(repo: ProjectRepository, tenant: str, name: str) -> Doc:
    return {
        "type": "banger-project-log",
        "tenant": tenant,
        "name": name,
        "versions": repo.log(tenant, name),
    }


def diff(repo: ProjectRepository, tenant: str, name: str, raw: Doc) -> Doc:
    delta = repo.diff(
        tenant, name, _version(raw, "version_a"), _version(raw, "version_b"),
        to_tenant=_option(raw, "to_tenant", str, "a tenant name string"),
        to_name=_option(raw, "to_name", str, "a project name string"),
    )
    return {"type": "banger-project-diff", **delta}


def put(repo: ProjectRepository, tenant: str, name: str, raw: Doc) -> Doc:
    project = _option(raw, "project", dict, "a saved project document")
    if project is None:
        raise OpError("put needs a 'project' document")
    info = repo.put(
        tenant, name, project,
        message=_option(raw, "message", str, "a string", ""),
        scenario=_option(raw, "scenario", dict, "a JSON object"),
    )
    return {"type": "banger-project-put", **info}


def fork(repo: ProjectRepository, tenant: str, name: str, raw: Doc) -> Doc:
    to_name = _option(raw, "to_name", str, "a project name string")
    if not to_name:
        raise OpError("fork needs a 'to_name'")
    info = repo.fork(
        tenant, name,
        _option(raw, "to_tenant", str, "a tenant name string", tenant), to_name,
        version=_version(raw),
        message=_option(raw, "message", str, "a string", ""),
    )
    return {"type": "banger-project-fork", **info}


def gc(repo: ProjectRepository, raw: Doc) -> Doc:
    what = "a non-negative whole number"
    max_bytes = _option(raw, "max_bytes", whole, what)
    if max_bytes is not None and max_bytes < 0:
        raise OpError(f"max_bytes must be {what}, got {max_bytes}")
    return {"type": "banger-store-gc", **repo.gc(max_bytes)}


# --------------------------------------------------------------------- #
# the HTTP door: path -> action
# --------------------------------------------------------------------- #
def _get(repo: ProjectRepository, rest: list[str]) -> Doc:
    if not rest:
        return list_tenants(repo)
    if len(rest) == 1:
        return list_projects(repo, rest[0])
    tenant, name, tail = rest[0], rest[1], rest[2:]
    if not tail:
        return record(repo, tenant, name, {})
    if tail[0] == "v" and len(tail) == 2:
        return record(repo, tenant, name, {"version": parse_version(tail[1])})
    if tail == ["log"]:
        return log(repo, tenant, name)
    if tail[0] == "diff" and len(tail) == 3:
        versions = {
            "version_a": parse_version(tail[1]), "version_b": parse_version(tail[2]),
        }
        return diff(repo, tenant, name, versions)
    raise StoreNotFound(f"no such projects route: /{'/'.join(['projects'] + rest)}")


def _post(repo: ProjectRepository, rest: list[str], payload: Doc) -> Doc:
    if rest == ["gc"]:
        return gc(repo, payload)
    if len(rest) < 2:
        raise StoreError("POST needs /projects/<tenant>/<name>")
    action = {(): put, ("fork",): fork, ("diff",): diff}.get(tuple(rest[2:]))
    if action is not None:
        return action(repo, rest[0], rest[1], payload)
    raise StoreNotFound(f"no such projects route: /{'/'.join(['projects'] + rest)}")


def store_request(
    repo: ProjectRepository,
    method: str,
    path: str,
    payload: dict[str, Any],
) -> tuple[int, Doc]:
    """Serve one ``/projects`` request; returns ``(status, document)``."""
    rest = [part for part in path.split("/") if part][1:]  # drop "projects"
    try:
        if method == "GET":
            return 200, _get(repo, rest)
        if method == "POST":
            return 200, _post(repo, rest, payload)
        return 405, error_document(
            "method-not-allowed", "/projects routes accept GET and POST"
        )
    except (StoreError, OpError) as exc:
        status, kind, _ = failure(exc)
        doc = error_document(kind, str(exc))
        if isinstance(exc, QuotaExceeded):
            doc.update(tenant=exc.tenant, quota=exc.quota, usage=exc.usage)
        return status, doc

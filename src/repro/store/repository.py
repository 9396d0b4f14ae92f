"""The project repository: multi-tenant ``get/put/fork/diff/log`` over blobs.

A stored project decomposes into content-addressed components so that
shared structure is stored exactly once across every tenant and version:

* the **design** document, with each composite node's ``"subgraph"``
  replaced by ``{"__blob__": <hash>}`` (recursively) and each task node's
  PITS ``"program"`` source replaced by ``{"__pits__": <hash>}``,
* the **machine** document, if the project pins one,
* an optional **scenario** document (fault scripts, sweep configs, …),
* a **manifest** tying the component hashes together and pinning the
  fingerprint of the original, fully-inflated project document.

``get`` reinflates and *verifies* that pinned fingerprint, so a stored
project is byte-identical (in canonical JSON) to what was put — corruption
anywhere in the chain is detected, never silently served.  ``fork`` writes
a new ref at an existing manifest (zero copies); ``diff`` compares two
versions hash-by-hash and, when designs differ, reports node-level deltas
with dotted paths into composite subgraphs.

Per-tenant quotas (:class:`TenantQuota`) bound project count, history
length, and logical bytes written; violations raise
:class:`repro.errors.QuotaExceeded`, which the daemon maps to HTTP 403.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import QuotaExceeded, StoreCorruption, StoreError
from repro.graph.serialize import canonical_json, fingerprint
from repro.store.blobs import BlobStore
from repro.store.refs import RefStore

MANIFEST_FORMAT = 1

#: Tenants never subject to quota checks (the built-in corpus must always
#: seed successfully regardless of daemon configuration).
EXEMPT_TENANTS = frozenset({"corpus"})


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant write limits; ``0`` disables the corresponding check and a
    negative limit is refused (:class:`StoreError`)."""

    max_projects: int = 0
    max_versions_per_project: int = 0
    max_bytes: int = 0

    def __post_init__(self) -> None:
        for name, limit in self.as_dict().items():
            if limit < 0:
                raise StoreError(f"{name} must be >= 0, got {limit}")

    def as_dict(self) -> dict[str, int]:
        return {
            "max_projects": self.max_projects,
            "max_versions_per_project": self.max_versions_per_project,
            "max_bytes": self.max_bytes,
        }


class ProjectRepository:
    """Content-addressed, versioned, multi-tenant project storage.

    Parameters
    ----------
    root:
        The directory that is the store (blob + ref tiers); every query
        reads it as it is now.
    quota:
        Default :class:`TenantQuota` applied to every non-exempt tenant.
    """

    def __init__(
        self,
        root: str | Path,
        quota: TenantQuota | None = None,
    ):
        self.blobs = BlobStore(root)
        self.refs = RefStore(root)
        self.quota = quota
        self._usage: dict[str, int] = {}  # logical bytes written, per tenant
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # design decomposition
    # ------------------------------------------------------------------ #
    def _deflate_design(self, doc: dict[str, Any]) -> dict[str, Any]:
        """Replace subgraphs and PITS programs with blob references."""
        out = dict(doc)
        nodes = []
        for node in doc.get("nodes", []):
            node = dict(node)
            sub = node.get("subgraph")
            if isinstance(sub, dict):
                node["subgraph"] = {
                    "__blob__": self.blobs.put(self._deflate_design(sub))
                }
            program = node.get("program")
            if isinstance(program, str):
                node["program"] = {
                    "__pits__": self.blobs.put(
                        {"type": "pits-program", "source": program}
                    )
                }
            nodes.append(node)
        out["nodes"] = nodes
        return out

    def _inflate_design(self, doc: dict[str, Any]) -> dict[str, Any]:
        """Resolve blob references back into the original nested document."""
        out = dict(doc)
        nodes = []
        for node in doc.get("nodes", []):
            node = dict(node)
            sub = node.get("subgraph")
            if isinstance(sub, dict) and "__blob__" in sub:
                node["subgraph"] = self._inflate_design(
                    self.blobs.get(sub["__blob__"])
                )
            program = node.get("program")
            if isinstance(program, dict) and "__pits__" in program:
                node["program"] = self.blobs.get(program["__pits__"])["source"]
            nodes.append(node)
        out["nodes"] = nodes
        return out

    # ------------------------------------------------------------------ #
    # quota enforcement
    # ------------------------------------------------------------------ #
    def _check_quota(self, tenant: str, name: str, incoming_bytes: int) -> None:
        quota = self.quota
        if quota is None or tenant in EXEMPT_TENANTS:
            return
        if (
            quota.max_projects
            and not self.refs.exists(tenant, name)
            and len(self.refs.projects(tenant)) >= quota.max_projects
        ):
            raise QuotaExceeded(
                f"tenant {tenant!r} is at its project quota "
                f"({quota.max_projects})",
                tenant=tenant,
                quota=quota.max_projects,
                usage=len(self.refs.projects(tenant)),
            )
        if quota.max_versions_per_project and self.refs.exists(tenant, name):
            depth = len(self.refs.versions(tenant, name))
            if depth >= quota.max_versions_per_project:
                raise QuotaExceeded(
                    f"project {tenant}/{name} is at its version quota "
                    f"({quota.max_versions_per_project})",
                    tenant=tenant,
                    quota=quota.max_versions_per_project,
                    usage=depth,
                )
        if quota.max_bytes:
            would_be = self._usage.get(tenant, 0) + incoming_bytes
            if would_be > quota.max_bytes:
                raise QuotaExceeded(
                    f"tenant {tenant!r} would exceed its byte quota "
                    f"({would_be} > {quota.max_bytes})",
                    tenant=tenant,
                    quota=quota.max_bytes,
                    usage=would_be,
                )

    def usage(self, tenant: str) -> int:
        """Logical bytes this tenant has written (this process lifetime)."""
        with self._lock:
            return self._usage.get(tenant, 0)

    # ------------------------------------------------------------------ #
    # put / get
    # ------------------------------------------------------------------ #
    def put(
        self,
        tenant: str,
        name: str,
        project: Any,
        message: str = "",
        scenario: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Store one project version; returns ``{tenant, name, version, …}``.

        ``project`` is a ``banger-project`` document (or any object with a
        ``to_dict()`` producing one).  Storing identical content twice costs
        one manifest lookup — every blob deduplicates.
        """
        doc = project.to_dict() if hasattr(project, "to_dict") else project
        if not isinstance(doc, dict) or "design" not in doc:
            raise StoreError(
                "a stored project must be a mapping with a 'design' document"
            )
        text = canonical_json(doc)
        with self._lock:
            self._check_quota(tenant, name, len(text))
            # fingerprint(doc), without rendering the project a second time
            project_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
            shell = {
                k: v for k, v in doc.items() if k not in ("design", "machine")
            }
            manifest = {
                "type": "project-manifest",
                "format": MANIFEST_FORMAT,
                "project": project_hash,
                "shell": shell,
                "design": self.blobs.put(self._deflate_design(doc["design"])),
                "machine": (
                    self.blobs.put(doc["machine"]) if "machine" in doc else None
                ),
                "scenario": (
                    self.blobs.put(scenario) if scenario is not None else None
                ),
            }
            manifest_hash = self.blobs.put(manifest)
            version = self.refs.append(tenant, name, manifest_hash, message)
            self._usage[tenant] = self._usage.get(tenant, 0) + len(text)
        return {
            "tenant": tenant,
            "name": name,
            "version": version,
            "manifest": manifest_hash,
            "project": project_hash,
        }

    def manifest(
        self, tenant: str, name: str, version: int | None = None
    ) -> dict[str, Any]:
        """The manifest document for one version (head by default)."""
        entry = self.refs.resolve(tenant, name, version)
        return self.blobs.get(entry["manifest"])

    def get(
        self, tenant: str, name: str, version: int | None = None
    ) -> dict[str, Any]:
        """The fully reinflated project document, fingerprint-verified."""
        return self._assemble(tenant, name, self.manifest(tenant, name, version))

    def record(
        self, tenant: str, name: str, version: int | None = None
    ) -> dict[str, Any]:
        """What :meth:`put` returned for one version, plus its ``message``,
        verified ``document`` and ``scenario`` (or ``None``) — the ref
        resolved and the manifest read once."""
        entry = self.refs.resolve(tenant, name, version)
        manifest = self.blobs.get(entry["manifest"])
        scenario = manifest.get("scenario")
        return {
            "tenant": tenant,
            "name": name,
            "version": entry["v"],
            "message": entry.get("message", ""),
            "manifest": entry["manifest"],
            "project": manifest["project"],
            "document": self._assemble(tenant, name, manifest),
            "scenario": self.blobs.get(scenario) if scenario else None,
        }

    def _assemble(
        self, tenant: str, name: str, manifest: dict[str, Any]
    ) -> dict[str, Any]:
        doc = dict(manifest["shell"])
        doc["design"] = self._inflate_design(self.blobs.get(manifest["design"]))
        if manifest.get("machine"):
            doc["machine"] = self.blobs.get(manifest["machine"])
        if fingerprint(doc) != manifest["project"]:
            raise StoreCorruption(
                f"store corruption: {tenant}/{name} reassembled to "
                f"{fingerprint(doc)[:12]}…, manifest pins "
                f"{manifest['project'][:12]}…"
            )
        return doc

    def scenario(
        self, tenant: str, name: str, version: int | None = None
    ) -> dict[str, Any] | None:
        """The scenario blob attached to one version, if any."""
        manifest = self.manifest(tenant, name, version)
        digest = manifest.get("scenario")
        return self.blobs.get(digest) if digest else None

    # ------------------------------------------------------------------ #
    # log / fork / diff
    # ------------------------------------------------------------------ #
    def log(self, tenant: str, name: str) -> list[dict[str, Any]]:
        """Version history, oldest first, with per-version project hashes."""
        history = []
        for entry in self.refs.versions(tenant, name):
            try:
                project_hash = self.blobs.get(entry["manifest"])["project"]
            except StoreError:
                project_hash = None
            history.append({**entry, "project": project_hash})
        return history

    def fork(
        self,
        tenant: str,
        name: str,
        to_tenant: str,
        to_name: str,
        version: int | None = None,
        message: str = "",
    ) -> dict[str, Any]:
        """New ref pointing at an existing manifest — no blob is copied."""
        entry = self.refs.resolve(tenant, name, version)
        with self._lock:
            self._check_quota(to_tenant, to_name, 0)
            message = message or (
                f"fork of {tenant}/{name} v{entry['v']}"
            )
            new_version = self.refs.append(
                to_tenant, to_name, entry["manifest"], message
            )
        return {
            "tenant": to_tenant,
            "name": to_name,
            "version": new_version,
            "manifest": entry["manifest"],
            "forked_from": {"tenant": tenant, "name": name, "v": entry["v"]},
        }

    def diff(
        self,
        tenant: str,
        name: str,
        version_a: int | None = None,
        version_b: int | None = None,
        to_tenant: str | None = None,
        to_name: str | None = None,
    ) -> dict[str, Any]:
        """Compare two versions component-hash by component-hash.

        Defaults compare two versions of the same project; pass
        ``to_tenant``/``to_name`` to compare across refs (e.g. a fork
        against its origin).  When design hashes differ the result carries
        node-level deltas (added/removed/changed, dotted paths into
        composites) and arc-level deltas.
        """
        entry_a = self.refs.resolve(tenant, name, version_a)
        entry_b = self.refs.resolve(
            to_tenant or tenant, to_name or name, version_b
        )
        manifest_a = self.blobs.get(entry_a["manifest"])
        manifest_b = self.blobs.get(entry_b["manifest"])
        components = {}
        for key in ("design", "machine", "scenario"):
            ha, hb = manifest_a.get(key), manifest_b.get(key)
            components[key] = {"a": ha, "b": hb, "equal": ha == hb}
        delta: dict[str, Any] = {
            "identical": entry_a["manifest"] == entry_b["manifest"],
            "a": {"v": entry_a["v"], "manifest": entry_a["manifest"]},
            "b": {"v": entry_b["v"], "manifest": entry_b["manifest"]},
            "components": components,
            "nodes": {"added": [], "removed": [], "changed": []},
            "arcs": {"added": [], "removed": []},
        }
        if not components["design"]["equal"]:
            nodes_a = self._flat_nodes(self.blobs.get(manifest_a["design"]))
            nodes_b = self._flat_nodes(self.blobs.get(manifest_b["design"]))
            delta["nodes"]["added"] = sorted(set(nodes_b) - set(nodes_a))
            delta["nodes"]["removed"] = sorted(set(nodes_a) - set(nodes_b))
            delta["nodes"]["changed"] = sorted(
                path
                for path in set(nodes_a) & set(nodes_b)
                if canonical_json(nodes_a[path]) != canonical_json(nodes_b[path])
            )
            arcs_a = self._flat_arcs(self.blobs.get(manifest_a["design"]))
            arcs_b = self._flat_arcs(self.blobs.get(manifest_b["design"]))
            delta["arcs"]["added"] = sorted(arcs_b - arcs_a)
            delta["arcs"]["removed"] = sorted(arcs_a - arcs_b)
        return delta

    def _flat_nodes(
        self, design: dict[str, Any], prefix: str = ""
    ) -> dict[str, dict[str, Any]]:
        """Dotted-path → node map over a *deflated* design, recursing into
        composite subgraph blobs.  The subgraph ref itself is excluded from
        the node's comparison key so a composite only reads "changed" when
        its own attributes change, not when its children do (the children
        report themselves)."""
        out: dict[str, dict[str, Any]] = {}
        for node in design.get("nodes", []):
            path = prefix + node["name"]
            sub = node.get("subgraph")
            out[path] = {k: v for k, v in node.items() if k != "subgraph"}
            if isinstance(sub, dict) and "__blob__" in sub:
                out.update(
                    self._flat_nodes(
                        self.blobs.get(sub["__blob__"]), path + "."
                    )
                )
        return out

    def _flat_arcs(
        self, design: dict[str, Any], prefix: str = ""
    ) -> set[str]:
        out: set[str] = set()
        for arc in design.get("arcs", []):
            out.add(
                f"{prefix}{arc['src']} -> {prefix}{arc['dst']}"
                f" [{arc.get('var', '')}]"
            )
        for node in design.get("nodes", []):
            sub = node.get("subgraph")
            if isinstance(sub, dict) and "__blob__" in sub:
                out |= self._flat_arcs(
                    self.blobs.get(sub["__blob__"]), prefix + node["name"] + "."
                )
        return out

    # ------------------------------------------------------------------ #
    # GC + stats
    # ------------------------------------------------------------------ #
    def _reachable(self, heads_only: bool = False) -> set[str]:
        """Every blob hash reachable from some ref (the GC live set)."""
        live: set[str] = set()
        design_stack: list[str] = []
        for manifest_hash in self.refs.manifests(heads_only=heads_only):
            try:
                manifest = self.blobs.get(manifest_hash)
            except StoreError:
                continue
            live.add(manifest_hash)
            for key in ("machine", "scenario"):
                if manifest.get(key):
                    live.add(manifest[key])
            if manifest.get("design"):
                design_stack.append(manifest["design"])
        while design_stack:
            digest = design_stack.pop()
            if digest in live:
                continue
            live.add(digest)
            try:
                design = self.blobs.get(digest)
            except StoreError:
                continue
            for node in design.get("nodes", []):
                sub = node.get("subgraph")
                if isinstance(sub, dict) and "__blob__" in sub:
                    design_stack.append(sub["__blob__"])
                program = node.get("program")
                if isinstance(program, dict) and "__pits__" in program:
                    live.add(program["__pits__"])
        return live

    def gc(self, max_bytes: int | None = None) -> dict[str, Any]:
        """Mark-sweep unreferenced blobs; optionally cap stored bytes after.

        Without a cap only garbage goes.  When the store still exceeds
        ``max_bytes`` afterwards, blobs reachable *only from non-head
        versions* are trimmed oldest-first too (their version entries then
        read as missing blobs) — every project's newest version always
        stays loadable, whatever the cap.

        Liveness is decided from ``refs/`` as it is on disk now: a project
        another process stored since is live.
        """
        with self._lock:
            live = self._reachable()
            deleted = self.blobs.sweep(live)
            if (
                max_bytes is not None
                and self.blobs.total_bytes() > max_bytes
            ):
                deleted += self.blobs.enforce_cap(
                    max_bytes, keep=self._reachable(heads_only=True)
                )
        return {
            "deleted": len(deleted),
            "live": len(live),
            "stored_bytes": self.blobs.total_bytes(),
        }

    def stats(self) -> dict[str, Any]:
        """Repository-wide counters, including the blob tier's dedup ratio."""
        tenants, projects, versions = self.refs.census()
        blobs, stored = self.blobs.census()
        return {
            "tenants": tenants,
            "projects": projects,
            "versions": versions,
            "blobs": blobs,
            "blob": self.blobs.stats.as_dict(stored),
            "quota": self.quota.as_dict() if self.quota else None,
        }

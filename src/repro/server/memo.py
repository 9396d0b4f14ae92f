"""An edit costs its size: each request process keeps its last request.

An editing client posts the whole project after every change, and a change
is usually a few nodes' fields.  A :class:`RequestMemo` keeps what the op
built for the last request its job function parsed: the design, the
machine, the flat graph with its hash once known, and the base schedule's
placements, beside type-exact signatures of the documents they were built
from.  The next body's documents are compared with the kept ones, subtree
by subtree:

* a design that differs only in task-node fields (``work``, ``label``,
  ``program``, ``meta``, at any depth) is patched: only those nodes are
  built again, so their checks run, and the op gets a *new* flat graph with
  those tasks replaced.  A flat graph once handed out is never mutated: the
  schedule cache keeps schedules over it.  Design validation (DF1xx) reads
  only names, kinds, arcs and ports, all equal, so it does not run again;
* an equal machine is the kept :class:`TargetMachine`, and an equal
  ``base_schedule`` reuses the kept placements and their full
  :class:`~repro.sched.incremental.Replay` — built by the first such
  request whose edit keeps the base graph's structure, and forked by every
  later one.  Each request's base is signed once, and kept as its
  signature;
* anything else (an arc, node, storage, port, name or machine change, a
  different design) is built cold, exactly as a direct caller builds it.

A signature is a subtree's :mod:`marshal` bytes: ``1``, ``1.0`` and
``true`` are ``==`` in Python but encode differently in a reply, and their
bytes differ too.  A document is signed when a later request first
compares with it, and then let go, so a design nobody edits costs no
signing.  A request that succeeds becomes the kept entry; one that fails
leaves the memo as it was.  The ops reach the memo through
:func:`project_of` and :func:`base_of`, and only for the very documents the
job function parsed, so a caller that hands ``ops`` its own payload (the
CLI, tests, the benchmark's replay) builds exactly as before.
"""

from __future__ import annotations

import marshal
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.env.project import BangerProject
from repro.graph.dataflow import DataflowGraph
from repro.graph.hierarchy import SCOPE_SEP, patch_flat
from repro.graph.node import TaskNode
from repro.graph.serialize import task_node_from_dict
from repro.lru import LEDGER
from repro.sched.incremental import Replay
from repro.sched.serialize import base_schedule_over
from repro.sched.service import default_service

#: Project ops served through a memo: built from the kept request, or cold.
LEDGER.declare(graph_patched=0, graph_cold=0)

#: The request the calling thread's job function is serving, if any.
_active = threading.local()

#: ``(path of node names from the top level, entry or node)`` per changed task.
Changes = list[tuple[tuple[str, ...], Any]]


def _sig(value: Any) -> bytes:
    """Type-exact content bytes of a parsed JSON value.  Version 2 writes no
    back-references, so equal content gives equal bytes whichever parse
    made it."""
    return marshal.dumps(value, 2)


def _without(doc: dict[str, Any], key: str) -> dict[str, Any]:
    return {k: v for k, v in doc.items() if k != key}


class _Level:
    """The signatures of one design document: everything but its nodes, each
    node, and per composite node its own fields and its subgraph's level."""

    def __init__(self, design: dict[str, Any]):
        self.head = _sig(_without(design, "nodes"))
        self.nodes = [_sig(node) for node in design.get("nodes", [])]
        self.composites: dict[int, tuple[bytes, _Level]] = {}

    @classmethod
    def whole(cls, design: dict[str, Any]) -> "_Level":
        """The level of ``design`` with every nested one."""
        level = cls(design)
        for i, entry in enumerate(design.get("nodes", [])):
            if entry.get("kind") == "composite":
                level.composites[i] = (_sig(_without(entry, "subgraph")),
                                       cls.whole(entry["subgraph"]))
        return level


def _changes(design: Any, kept: _Level, graph: DataflowGraph,
             path: tuple[str, ...]) -> tuple[Changes, _Level] | None:
    """The ``task`` entries of design document ``design`` whose fields differ
    from those ``graph`` was built from (signed by ``kept``), and the new
    level; ``None`` when anything else differs."""
    level = _Level(design)
    if level.head != kept.head or len(level.nodes) != len(kept.nodes):
        return None
    built = graph.nodes
    changed: Changes = []
    for i, (new, old) in enumerate(zip(level.nodes, kept.nodes)):
        if new == old:
            if i in kept.composites:
                level.composites[i] = kept.composites[i]
            continue
        entry, was = design["nodes"][i], built[i]
        # the entry's other keys are never read: name and kind are its shape
        if not isinstance(was, TaskNode) or entry.get("name") != was.name:
            return None
        if entry.get("kind") == "task" and not was.is_composite:
            changed.append((path + (was.name,), entry))
        elif entry.get("kind") == "composite" and was.is_composite:
            own, inner = kept.composites[i]
            if _sig(_without(entry, "subgraph")) != own:
                return None
            found = _changes(entry.get("subgraph"), inner,
                             graph.subgraph(was.name), path + (was.name,))
            if found is None:
                return None
            changed.extend(found[0])
            level.composites[i] = (own, found[1])
        else:
            return None
    return changed, level


def _patched(design: DataflowGraph, nodes: Changes) -> DataflowGraph:
    """``design`` with each changed node in place, nested ones included."""
    here = {path[0]: node for path, node in nodes if len(path) == 1}
    deeper: dict[str, Changes] = {}
    for path, node in nodes:
        if len(path) > 1:
            deeper.setdefault(path[0], []).append((path[1:], node))
    return design.replaced(here, {
        name: _patched(design.subgraph(name), inner)
        for name, inner in deeper.items()
    })


class _Kept:
    """What was built for one request, and the signatures of the documents
    it was built from.  A signature the request did not take is taken from
    the document on first demand, and a document is let go once signed, so
    a request nobody compares with costs no signing."""

    def __init__(self, built: tuple, doc: dict[str, Any] | None,
                 head: bytes | None, level: _Level | None,
                 base: Any, base_sig: bytes | None):
        self.design, self.machine, self.flat, self.flat_hash = built
        self._doc, self._head, self._level = doc, head, level
        # the base's placements, their full replay and the base document's
        # signature, ``None`` when the op read no base; the replay is built
        # when an equal base re-times
        self.placed = None if base is None else base.placed
        self.replay = None if base is None else base.replay or Replay(base.placed)
        self.base_sig = base_sig

    def head(self) -> bytes:
        if self._head is None:
            self._head = _sig(_without(self._doc, "design"))
        return self._head

    def level(self) -> _Level:
        if self._level is None:
            self.head()
            self._level = _Level.whole(self._doc["design"])
            self._doc = None
        return self._level


class _Request:
    """One request a memo serves: its documents, and what the op took."""

    def __init__(self, kept: _Kept | None, payload: dict[str, Any]):
        self.kept = kept
        self.doc = payload["project"]
        self.base_doc = payload.get("base_schedule")
        self.project: BangerProject | None = None
        self.base: Any = None
        self.base_sig: bytes | None = None
        self.head: bytes | None = None
        self.level: _Level | None = None
        self._parts: tuple | None = None
        self._tried = False

    def project_of(self, build: Callable[[dict[str, Any]], BangerProject]) -> BangerProject:
        if self.project is not None:
            return self.project
        if not self._tried:
            self._tried = True
            try:
                self._parts = self._patch()
            except Exception:  # noqa: BLE001 - whatever the patch trips on
                # is built cold below, which refuses it as a direct caller's
                # build would, message for message
                self._parts = None
        if self._parts is None:
            project = build(self.doc)
        else:
            project = BangerProject.from_parts(
                self.doc.get("name", "untitled"), *self._parts,
                service=default_service(),
            )
        LEDGER.bump("graph_cold" if self._parts is None else "graph_patched")
        self.project = project
        return project

    def _patch(self) -> tuple | None:
        """``(design, machine, flat, flat_hash)`` patched from the kept
        entry, or ``None`` when the design must be built cold."""
        kept, doc = self.kept, self.doc
        if kept is None:
            return None
        self.head = _sig(_without(doc, "design"))
        if self.head != kept.head():
            return None
        found = _changes(doc["design"], kept.level(), kept.design, ())
        if found is None:
            return None
        changes, self.level = found
        built = [(path, task_node_from_dict(entry)) for path, entry in changes]
        flat, flat_hash = kept.flat, kept.flat_hash
        if built and flat is not None:
            flat = patch_flat(flat, {SCOPE_SEP.join(p): n for p, n in built})
            flat_hash = None
        return _patched(kept.design, built), kept.machine, flat, flat_hash

    def base_of(self, read: Callable[[dict[str, Any]], Any]) -> Any:
        kept, doc = self.kept, self.base_doc
        self.base_sig = _sig(doc)
        if kept is None or kept.placed is None or self.base_sig != kept.base_sig:
            self.base = read(doc)
        else:
            self.base = base_schedule_over(kept.placed, doc, kept.replay)
        return self.base

    def kept_next(self) -> _Kept | None:
        """This request as the memo's entry, if the op built its project."""
        if self.project is None:
            return None
        return _Kept(
            self.project.parts(),
            self.doc if self.level is None else None, self.head, self.level,
            self.base, self.base_sig,
        )


class RequestMemo:
    """One owner's last request and what was built from it.

    An owner is one job function that serves one job at a time: a worker
    process's loop, or the daemon's inline slot.  :meth:`serving` wraps one
    job, and bumps ``graph_patched`` / ``graph_cold`` in the work ledger for
    the one project the job builds.
    """

    def __init__(self) -> None:
        self._kept: _Kept | None = None

    @contextmanager
    def serving(self, payload: dict[str, Any]) -> Iterator[None]:
        """Serve one parsed ``payload`` with the memo: its op finds what it
        built through :func:`project_of` and :func:`base_of`.  On success
        the request becomes the kept entry; on an exception the memo is
        left as it was."""
        if not isinstance(payload.get("project"), dict):
            yield
            return
        request = _Request(self._kept, payload)
        _active.request = request
        try:
            yield
        finally:
            _active.request = None
        self._kept = request.kept_next() or self._kept


def project_of(doc: dict[str, Any],
               build: Callable[[dict[str, Any]], BangerProject]) -> BangerProject:
    """``build(doc)``, unless ``doc`` is the project document the calling
    thread's memo is serving: then the project it patched, or built cold."""
    request = getattr(_active, "request", None)
    if request is None or doc is not request.doc:
        return build(doc)
    return request.project_of(build)


def base_of(doc: dict[str, Any], read: Callable[[dict[str, Any]], Any]) -> Any:
    """``read(doc)``, unless ``doc`` is the ``base_schedule`` the calling
    thread's memo is serving: then equal to the kept one, it reuses the
    kept placements and their replay."""
    request = getattr(_active, "request", None)
    if request is None or doc is not request.base_doc:
        return read(doc)
    return request.base_of(read)


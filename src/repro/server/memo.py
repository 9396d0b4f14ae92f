"""An edit costs its size: each request process keeps its last request.

An editing client posts the whole project after every change, and a change
is usually a few nodes' fields.  A :class:`RequestMemo` keeps the last
request its job function served: the body's decoded text, the payload
parsed from it, and what the op built for it — the design, the machine,
the flat graph with its hash once known, and the base schedule.

The next body is read against the kept text (:class:`_Reader`).  The walk
visits the top-level keys, ``project``'s keys, ``design``'s keys, and each
entry of ``nodes``, recursing into a composite node's ``subgraph``.  At each
step a value whose text is the kept text of the same key or index, up to a
JSON delimiter, *is* the kept parsed object; any other value is decoded as
one unit by the decoder :func:`json.loads` uses.  Equal text is type-exact
by construction: ``1``, ``1.0`` and ``true`` are ``==`` in Python but are
different text, and different bytes in a reply.  The walk refuses nothing:
on anything it does not expect (bad UTF-8, a decode error, a non-object,
trailing data, nesting too deep) it hands the body to
:func:`~repro.server.protocol.parse_body`, whose payload or refusal is the
answer, message for message.

So an unchanged subtree of the new payload is the very object the kept
payload holds, and the ops' builds compare by identity:

* a design whose nodes differ only in task-node fields (``work``,
  ``label``, ``program``, ``meta``, at any depth) is patched: only those
  nodes are built again, so their checks run, and the op gets a *new*
  design and flat graph with those tasks replaced, over the kept graphs'
  very arc and edge lists and adjacency maps, which are not copied.  No
  graph once handed out is mutated: the schedule cache keeps schedules
  over it, and the graphs patched from it share its edges.  Design
  validation (DF1xx) reads only names, kinds, arcs and ports, all the
  kept ones, so it does not run again;
* the kept ``machine`` document is the kept :class:`TargetMachine`, and the
  kept ``base_schedule`` document is not read again: it is the kept base's
  :class:`~repro.sched.incremental.Replay`, whose full replay is built by
  the first such request whose edit keeps the base graph's structure, and
  forked by every later one.  A fork is diffed, re-timed, reported and
  encoded at the cost of its edit from what the replay keeps beside it:
  its kernel is derived from the last fork's, and its reply's
  ``schedule`` is spliced from encoded pieces;
* anything else (an arc, node, storage, port, name or machine change, a
  different design) is built cold, exactly as a direct caller builds it.

No op mutates a payload's documents, so a kept subtree handed to the next
request stays what its text says.  A request that succeeds becomes the kept
entry; one that fails leaves the memo as it was.  The ops reach the memo
through :func:`project_of` and :func:`base_of`, and only for the very
documents the job function read, so a caller that hands ``ops`` its own
payload (the CLI, tests, the benchmark's replay) builds exactly as before —
and, as only a kept base has a replay, gets a plain document, never encoded
bytes.
"""

from __future__ import annotations

import json
import re
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
from repro.sched.service import default_service
from repro.server.protocol import parse_body

#: Project ops served through a memo: built from the kept request, or cold.
LEDGER.declare(graph_patched=0, graph_cold=0)

#: The request the calling thread's job function is serving, if any.
_active = threading.local()

#: ``(path of node names from the top level, entry or node)`` per changed task.
Changes = list[tuple[tuple[str, ...], Any]]

#: One value as :func:`json.loads` decodes it: ``(value, end)``.
_decode = json.JSONDecoder().raw_decode
_key = json.decoder.scanstring
_space = re.compile(r"[ \t\n\r]*").match
#: What may follow a value inside an object or an array.
_AFTER = frozenset(" \t\n\r,]}")

#: Where a walked value sits in its body's text: ``(start, length, value,
#: inner)``, its start relative to the start of the object or array that
#: holds it (the top level's to the text's), and ``inner`` the spans of a
#: walked object's keys (a dict) or array's entries (a list), else ``None``.
#: Relative starts keep a kept subtree's spans valid wherever its text moves.
Span = tuple[int, int, Any, Any]


class _Reader:
    """One body's text read against the kept body's text and spans."""

    def __init__(self, text: str, kept: tuple[str, Span] | None):
        self.text = text
        self.old, self.kept = kept or ("", None)

    def payload(self) -> tuple[dict[str, Any], Span]:
        """The body's payload and its span; ``ValueError`` (or
        ``IndexError``, ``RecursionError``) on anything unexpected."""
        text = self.text
        start = _space(text, 0).end()
        if text[start] != "{":
            raise ValueError("not an object")
        payload, end, inner = self._object(start, self.kept, 0, _TOP)
        if _space(text, end).end() != len(text):
            raise ValueError("trailing data")
        return payload, (start, end - start, payload, inner)

    def _value(self, p: int, kept: Span | None, at: int,
               level: Callable | None) -> tuple[Any, int, Any]:
        """The value at ``p``, ``(value, end, inner)``: the kept one when its
        text is there (``kept`` is the same key's or index's span, ``at``
        the kept holder's start), else walked by ``level`` or decoded."""
        text = self.text
        if kept is not None:
            start, length = at + kept[0], kept[1]
            end = p + length
            if (end < len(text) and text[end] in _AFTER
                    and text.startswith(self.old[start:start + length], p)):
                return kept[2], end, kept[3]
        if level is not None:
            return level(self, p, kept, at)
        value, end = _decode(text, p)
        return value, end, None

    def _object(self, p: int, kept: Span | None, at: int,
                levels: dict[str, Callable]) -> tuple[Any, int, Any]:
        text = self.text
        if text[p] != "{":
            value, end = _decode(text, p)
            return value, end, None
        old: dict[str, Span] = {}
        if kept is not None and type(kept[3]) is dict:
            old, at = kept[3], at + kept[0]
        obj: dict[str, Any] = {}
        inner: dict[str, Span] = {}
        q = _space(text, p + 1).end()
        if text[q] == "}":
            return obj, q + 1, inner
        while True:
            if text[q] != '"':
                raise ValueError("expected a key")
            key, q = _key(text, q + 1)
            q = _space(text, q).end()
            if text[q] != ":":
                raise ValueError("expected ':'")
            q = _space(text, q + 1).end()
            value, end, below = self._value(q, old.get(key), at, levels.get(key))
            obj[key] = value
            inner[key] = (q - p, end - q, value, below)
            q = _space(text, end).end()
            if text[q] == "}":
                return obj, q + 1, inner
            if text[q] != ",":
                raise ValueError("expected ',' or '}'")
            q = _space(text, q + 1).end()

    def _nodes(self, p: int, kept: Span | None, at: int) -> tuple[Any, int, Any]:
        text = self.text
        if text[p] != "[":
            value, end = _decode(text, p)
            return value, end, None
        old: list[Span] = []
        if kept is not None and type(kept[3]) is list:
            old, at = kept[3], at + kept[0]
        items: list[Any] = []
        inner: list[Span] = []
        q = _space(text, p + 1).end()
        if text[q] == "]":
            return items, q + 1, inner
        while True:
            i = len(items)
            j = self._run(q, old, i, at) if i < len(old) else i
            if j > i:
                # kept entries whose text is here, moved by as much as q
                delta = q - p - old[i][0]
                for rel, length, value, below in old[i:j]:
                    items.append(value)
                    inner.append((rel + delta, length, value, below))
                end = p + inner[-1][0] + inner[-1][1]
            else:
                value, end, below = self._node(q, old[i] if i < len(old) else None, at)
                items.append(value)
                inner.append((q - p, end - q, value, below))
            q = _space(text, end).end()
            if text[q] == "]":
                return items, q + 1, inner
            if text[q] != ",":
                raise ValueError("expected ',' or ']'")
            q = _space(text, q + 1).end()

    def _run(self, q: int, old: list[Span], i: int, at: int) -> int:
        """The end ``j`` of the longest run ``old[i:j]`` of kept entries
        whose text, separators included, is the text at ``q``: a run of
        unchanged nodes costs a few comparisons, not one per node, and
        each stretch of the kept text is compared about once."""
        text, was = self.text, self.old
        origin = at + old[i][0]

        def here(lo: int, hi: int) -> bool:
            """Whether the kept text from entry ``lo - 1``'s end (entry
            ``i``'s start) to entry ``hi - 1``'s end is at its place."""
            start = origin if lo == i else at + old[lo - 1][0] + old[lo - 1][1]
            end = at + old[hi - 1][0] + old[hi - 1][1]
            p = q + start - origin
            after = p + end - start
            return (after < len(text) and text[after] in _AFTER
                    and text.startswith(was[start:end], p))

        j, step = i, 1  # old[i:j] is here; try twice as much each time
        while j < len(old):
            k = min(j + step, len(old))
            if not here(j, k):
                break
            j, step = k, step * 2
        else:
            return j
        while k - j > 1:  # old[i:j] is here, old[i:k] is not
            mid = (j + k) // 2
            if here(j, mid):
                j = mid
            else:
                k = mid
        return j

    def _node(self, p: int, kept: Span | None, at: int) -> tuple[Any, int, Any]:
        """A ``nodes`` entry: walked when it was a walked composite, else
        decoded as one unit, and walked again if that made a composite."""
        if kept is None or kept[3] is None:
            value, end = _decode(self.text, p)
            if type(value) is not dict or type(value.get("subgraph")) is not dict:
                return value, end, None
            kept = None
        return self._object(p, kept, at, _NODE)

    def _design(self, p: int, kept: Span | None, at: int) -> tuple[Any, int, Any]:
        return self._object(p, kept, at, _DESIGN)

    def _project(self, p: int, kept: Span | None, at: int) -> tuple[Any, int, Any]:
        return self._object(p, kept, at, _PROJECT)


#: The walked levels: per object, the keys whose value is walked, and how.
_TOP = {"project": _Reader._project}
_PROJECT = {"design": _Reader._design}
_DESIGN = {"nodes": _Reader._nodes}
_NODE = {"subgraph": _Reader._design}


def read_body(body: bytes, kept: tuple[str, Span] | None = None
              ) -> tuple[dict[str, Any], tuple[str, Span] | None]:
    """``body``'s payload, reading only the text that differs from
    ``kept``'s, and what to read the next body against: its text and
    span, or ``None`` when :func:`parse_body` read it."""
    try:
        text = body.decode("utf-8")
        payload, span = _Reader(text, kept).payload()
    except (ValueError, IndexError, RecursionError):
        return parse_body(body), None
    return payload, (text, span)


def _same_but(doc: dict[str, Any], was: dict[str, Any], key: str) -> bool:
    """Whether ``doc`` holds ``was``'s very values under its keys, in its
    order, but for the one under ``key``."""
    return list(doc) == list(was) and all(
        doc[k] is was[k] for k in doc if k != key)


def _changes(design: Any, was: dict[str, Any], graph: DataflowGraph,
             path: tuple[str, ...]) -> Changes | None:
    """The ``task`` entries of design document ``design`` that are not the
    kept document ``was``'s (which ``graph`` was built from); ``None`` when
    anything else differs."""
    if not _same_but(design, was, "nodes"):
        return None
    nodes, old = design["nodes"], was["nodes"]
    if len(nodes) != len(old):
        return None
    built = graph.nodes
    changed: Changes = []
    for i, entry in enumerate(nodes):
        if entry is old[i]:
            continue
        node = built[i]
        # the entry's other keys are never read: name and kind are its shape
        if not isinstance(node, TaskNode) or entry.get("name") != node.name:
            return None
        if entry.get("kind") == "task" and not node.is_composite:
            changed.append((path + (node.name,), entry))
        elif entry.get("kind") == "composite" and node.is_composite:
            if not _same_but(entry, old[i], "subgraph"):
                return None
            found = _changes(entry.get("subgraph"), old[i]["subgraph"],
                             graph.subgraph(node.name), path + (node.name,))
            if found is None:
                return None
            changed.extend(found)
        else:
            return None
    return changed


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
    """What was built for one request, beside the payload it was built
    from and that payload's text and spans."""

    def __init__(self, built: tuple, payload: dict[str, Any],
                 read: tuple[str, Span] | None, base: Any):
        self.design, self.machine, self.flat, self.flat_hash = built
        self.doc = payload["project"]
        self.base_doc = payload.get("base_schedule")
        self.read = read
        # the base's full replay, ``None`` when the op read no base; the
        # replay is built when the same base re-times
        self.replay = base if base is None or isinstance(base, Replay) else Replay(base)


class _Request:
    """One request a memo serves: its documents, and what the op took."""

    def __init__(self, kept: _Kept | None, payload: dict[str, Any],
                 read: tuple[str, Span] | None):
        self.kept, self.payload, self.read = kept, payload, read
        self.doc = payload["project"]
        self.base_doc = payload.get("base_schedule")
        self.project: BangerProject | None = None
        self.base: Any = None

    def project_of(self, build: Callable[[dict[str, Any]], BangerProject]) -> BangerProject:
        if self.project is not None:
            return self.project
        try:
            parts = self._patch()
        except Exception:  # noqa: BLE001 - whatever the patch trips on is
            # built cold below, which refuses it as a direct caller's build
            # would, message for message
            parts = None
        if parts is None:
            project = build(self.doc)
        else:
            project = BangerProject.from_parts(
                self.doc.get("name", "untitled"), *parts, service=default_service(),
            )
        LEDGER.bump("graph_cold" if parts is None else "graph_patched")
        self.project = project
        return project

    def _patch(self) -> tuple | None:
        """``(design, machine, flat, flat_hash)`` patched from the kept
        entry, or ``None`` when the design must be built cold."""
        kept, doc = self.kept, self.doc
        if kept is None or not _same_but(doc, kept.doc, "design"):
            return None
        changes = _changes(doc["design"], kept.doc["design"], kept.design, ())
        if changes is None:
            return None
        built = [(path, task_node_from_dict(entry)) for path, entry in changes]
        flat, flat_hash = kept.flat, kept.flat_hash
        if built and flat is not None:
            flat = patch_flat(flat, {SCOPE_SEP.join(p): n for p, n in built})
            flat_hash = None
        return _patched(kept.design, built), kept.machine, flat, flat_hash

    def base_of(self, read: Callable[[dict[str, Any]], Any]) -> Any:
        kept = self.kept
        if kept is None or kept.replay is None or self.base_doc is not kept.base_doc:
            self.base = read(self.base_doc)
        else:
            self.base = kept.replay
        return self.base

    def kept_next(self) -> _Kept | None:
        """This request as the memo's entry, if the op built its project."""
        if self.project is None:
            return None
        return _Kept(self.project.parts(), self.payload, self.read, self.base)


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
    def serving(self, body: bytes) -> Iterator[dict[str, Any]]:
        """Read one request ``body`` against the kept one and yield its
        payload, whose op finds what it built through :func:`project_of`
        and :func:`base_of`.  On success the request becomes the kept
        entry; on an exception the memo is left as it was.  A body that
        is no JSON object raises :func:`parse_body`'s refusal."""
        kept = self._kept
        payload, read = read_body(body, kept.read if kept is not None else None)
        if not isinstance(payload.get("project"), dict):
            yield payload
            return
        request = _Request(kept, payload, read)
        _active.request = request
        try:
            yield payload
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
    thread's memo is serving and the very document it kept: then the kept
    base's :class:`~repro.sched.incremental.Replay`."""
    request = getattr(_active, "request", None)
    if request is None or doc is not request.base_doc:
        return read(doc)
    return request.base_of(read)

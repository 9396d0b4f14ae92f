"""A request process keeps its last request: an edit costs its size.

A worker and the inline slot each keep what they built for their last
request (``repro.server.memo``).  The work a one-task edit does after
another edit is counted here by wrapping the functions themselves, and
every reply and refusal a memo serves is compared with a serve that keeps
nothing, byte for byte and message for message.
"""

from __future__ import annotations

import copy
import hashlib
import json
import marshal
import pathlib
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env import project as project_module
from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.graph.node import StorageNode, TaskNode
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineParams, make_machine
from repro.server import memo as memo_module
from repro.server import ops
from repro.server.memo import RequestMemo
from repro.server.protocol import json_body, parse_body
from repro.server.workers import serve
from tests.server import test_base_reading as base_reading

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0,
                       process_startup=0.05, hop_latency=0.1)
EXAMPLES = pathlib.Path(__file__).parents[2] / "examples"


def _layered(n: int, seed: int = 1) -> dict:
    graph = random_layered(n, 6, edge_prob=0.12, seed=seed)
    project = BangerProject("edit").set_design(as_dataflow(graph))
    return project.set_machine("hypercube", 8, PARAMS).to_dict()


def _tasks(design: dict) -> list[dict]:
    """Every ``task`` entry of a design document, depth first."""
    out = []
    for node in design["nodes"]:
        if node["kind"] == "task":
            out.append(node)
        elif node["kind"] == "composite":
            out.extend(_tasks(node["subgraph"]))
    return out


def _with_work(doc: dict, index: int) -> dict:
    """``doc`` with task ``index``'s work doubled plus one."""
    edited = copy.deepcopy(doc)
    task = _tasks(edited["design"])[index]
    task["work"] = task["work"] * 2.0 + 1.0
    return edited


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _comparable(outcome: tuple) -> tuple:
    """A job outcome as a reply: its bytes, or its refusal.  Counters are
    left out: the memo's differ by design, and the service's by what an
    earlier serve of the same body cached."""
    if outcome[0] == "ok":
        return "ok", outcome[1]["body"]
    if outcome[0] == "error":
        return "error", outcome[1], outcome[2].splitlines()[0]
    return outcome


def _cold(op: str, body: bytes) -> tuple:
    return _comparable(serve(ops.execute, op, body))


def _keyed(op: str, body: bytes, memo: RequestMemo | None = None) -> tuple[tuple, str]:
    """A job served as a worker serves it, and the key the daemon caches
    its reply under: the hash of its op and body."""
    outcome = serve(ops.execute, op, body, memo)
    return outcome, hashlib.sha256(op.encode() + b"\0" + body).hexdigest()


@pytest.fixture
def calls(monkeypatch):
    """Design nodes built, projects inflated, designs flattened, bases
    read and graphs hashed, counted by wrapping the functions."""
    seen = dict.fromkeys(("nodes", "inflates", "flattens", "base_reads", "hashes"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TaskNode, "__post_init__",
                        counting("nodes", TaskNode.__post_init__))
    monkeypatch.setattr(StorageNode, "__post_init__",
                        counting("nodes", StorageNode.__post_init__))
    monkeypatch.setattr(project_module, "dataflow_from_dict",
                        counting("inflates", project_module.dataflow_from_dict))
    monkeypatch.setattr(project_module, "flatten",
                        counting("flattens", project_module.flatten))
    monkeypatch.setattr(ops, "schedule_from_dict",
                        counting("base_reads", ops.schedule_from_dict))
    monkeypatch.setattr(TaskGraph, "content_hash",
                        counting("hashes", TaskGraph.content_hash))
    ops.shared_service().clear()
    yield seen
    ops.shared_service().clear()


def _zero(calls: dict) -> None:
    for name in calls:
        calls[name] = 0


def _two_edits(n: int = 120) -> tuple[bytes, bytes]:
    """Two edits against one base: each changes one task of the design,
    so the second differs from the first in two."""
    doc = _layered(n)
    base = ops.execute("schedule", {"project": doc})["result"]["schedule"]
    return tuple(
        _body({"project": _with_work(doc, victim), "base_schedule": base})
        for victim in (7, 61)
    )


# --------------------------------------------------------------------- #
# counted: a one-task edit after an edit builds what changed
# --------------------------------------------------------------------- #
def test_a_worker_builds_only_the_changed_nodes_and_reads_no_base(calls):
    first, second = _two_edits()
    memo = RequestMemo()
    _zero(calls)
    assert serve(ops.execute, "schedule", first, memo)[0] == "ok"
    assert calls["nodes"] > 200 and calls["inflates"] == calls["flattens"] == 1
    _zero(calls)
    outcome = serve(ops.execute, "schedule", second, memo)
    assert outcome[0] == "ok"
    assert calls == {"nodes": 2, "inflates": 0, "flattens": 0,
                     "base_reads": 0, "hashes": 0}
    counters = outcome[1]["counters"]
    assert (counters["graph_patched"], counters["graph_cold"]) == (1, 0)
    assert _comparable(outcome) == _cold("schedule", second)


def test_direct_callers_inflate_as_before(calls):
    """``ops`` called with the caller's own payload keeps nothing."""
    first, second = _two_edits()
    _zero(calls)
    for body in (first, second):
        ops.execute("schedule", parse_body(body))
        ops.coalesce_key("schedule", parse_body(body))
    assert calls["inflates"] == calls["flattens"] == 4
    assert calls["base_reads"] == 2  # the key never reads the base


def test_a_one_task_edit_decodes_one_node_entry(monkeypatch):
    """The edit's body is read against the kept body's text: of the whole
    body only the one task entry whose text differs is decoded, the rest
    of the payload is the kept one's very objects, and nothing is signed."""
    doc = _layered(120)
    base = ops.execute("schedule", {"project": doc})["result"]["schedule"]
    first, second = (_body({"project": d, "base_schedule": base})
                     for d in (doc, _with_work(doc, 61)))
    memo = RequestMemo()
    serve(ops.execute, "schedule", first, memo)
    kept = memo._kept.read[1][2]
    decoded, signed = [], []
    decode, dumps = memo_module._decode, marshal.dumps

    def counting_decode(text, at):
        found = decode(text, at)
        decoded.append(found[0])
        return found

    monkeypatch.setattr(memo_module, "_decode", counting_decode)
    monkeypatch.setattr(marshal, "dumps", lambda *args: signed.append(args) or dumps(*args))
    outcome = serve(ops.execute, "schedule", second, memo)
    assert outcome[1]["counters"]["graph_patched"] == 1
    assert decoded == [_tasks(json.loads(second)["project"]["design"])[61]]
    assert signed == []
    payload = memo._kept.read[1][2]
    nodes, kept_nodes = payload["project"]["design"]["nodes"], kept["project"]["design"]["nodes"]
    assert sum(node is not was for node, was in zip(nodes, kept_nodes)) == 1
    assert payload["project"]["machine"] is kept["project"]["machine"]
    assert _comparable(outcome) == _cold("schedule", second)


def test_a_refused_request_leaves_the_memo_as_it_was(calls):
    first, second = _two_edits()
    memo = RequestMemo()
    serve(ops.execute, "schedule", first, memo)
    refused = json.loads(second)
    refused["scheduler"] = "no-such-scheduler"
    outcome = serve(ops.execute, "schedule", _body(refused), memo)
    assert outcome[0] == "user_error"
    _zero(calls)
    outcome = serve(ops.execute, "schedule", second, memo)
    assert outcome[1]["counters"]["graph_patched"] == 1
    assert calls["nodes"] == 2 and calls["base_reads"] == 0


def test_a_dict_body_is_never_memoized(calls):
    first, _ = _two_edits()
    memo = RequestMemo()
    _zero(calls)
    for _ in range(2):
        outcome = serve(ops.execute, "schedule", parse_body(first), memo)
        assert outcome[1]["counters"]["graph_patched"] == 0
    assert calls["inflates"] == 2


def test_another_base_is_read_not_reused(calls):
    """The same edit against two bases: the second base is read, and each
    reply is the cold one."""
    doc = _layered(60)
    edited = _with_work(doc, 9)
    memo = RequestMemo()
    for scheduler, reads in (("mh", 1), ("etf", 1), ("etf", 0)):
        base = ops.execute("schedule", {"project": doc, "scheduler": scheduler})
        body = _body({"project": edited, "base_schedule": base["result"]["schedule"]})
        _zero(calls)
        got = _comparable(serve(ops.execute, "schedule", body, memo))
        assert calls["base_reads"] == reads, scheduler
        assert got == _cold("schedule", body)


def test_a_task_inside_a_composite_is_patched():
    doc = json.loads((EXAMPLES / "lu_decomposition.json").read_text())
    nested = [i for i, task in enumerate(_tasks(doc["design"]))
              if task not in doc["design"]["nodes"]]
    memo = RequestMemo()
    serve(ops.execute, "schedule", _body({"project": doc}), memo)
    for index in nested[-2:]:
        body = _body({"project": _with_work(doc, index)})
        outcome = serve(ops.execute, "schedule", body, memo)
        assert outcome[1]["counters"]["graph_patched"] == 1
        assert _comparable(outcome) == _cold("schedule", body)


def test_equal_in_python_is_not_equal_in_a_reply():
    """``2``, ``2.0`` and ``true`` compare equal but encode differently:
    each is its own edit, answered as a cold serve answers it."""
    doc = _layered(30)
    memo = RequestMemo()
    for work in (2, 2.0, True, 2, 1, 1.0):
        edited = copy.deepcopy(doc)
        _tasks(edited["design"])[3]["work"] = work
        edited["design"]["arcs"][0]["size"] = work if work is not True else 1
        body = _body({"project": edited})
        assert _comparable(serve(ops.execute, "schedule", body, memo)) == _cold(
            "schedule", body)


# --------------------------------------------------------------------- #
# byte identity: the base-reading edit kinds, then random sequences
# --------------------------------------------------------------------- #
PATCHED_KINDS = ("work", "label only", "unchanged")


@pytest.mark.parametrize("kind", [
    "work", "edge size", "edge added", "edge removed", "task added",
    "task deleted", "label only", "unchanged",
])
def test_every_edit_kind_answers_the_cold_bytes(kind):
    ops.shared_service().clear()
    doc = base_reading._doc(base_reading.GRAPH)
    base = ops.execute("schedule", {"project": doc})["result"]["schedule"]
    memo = RequestMemo()
    serve(ops.execute, "schedule", _body({"project": doc, "base_schedule": base}), memo)
    body = _body({"project": base_reading._doc(base_reading._edited(kind)),
                  "base_schedule": base})
    outcome = serve(ops.execute, "schedule", body, memo)
    assert outcome[0] == "ok"
    assert outcome[1]["counters"]["graph_patched"] == (kind in PATCHED_KINDS)
    assert _comparable(outcome) == _cold("schedule", body)


def _pick(data, items: list, what: str):
    return items[data.draw(st.integers(0, len(items) - 1), label=what)]


def _levels(design: dict) -> list[dict]:
    """The design document and every nested subgraph document."""
    out = [design]
    for node in design["nodes"]:
        if node["kind"] == "composite":
            out.extend(_levels(node["subgraph"]))
    return out


def _edit(data, doc: dict, original: dict, fresh: int) -> dict:
    """One random edit of ``doc`` (returned edited, maybe refused later)."""
    kind = data.draw(st.sampled_from([
        "work", "work", "label", "program", "meta", "arc added", "arc removed",
        "node added", "node removed", "machine", "rename project",
        "rename node", "refused", "restore",
    ]), label="edit")
    doc = copy.deepcopy(doc)
    design = doc["design"]
    tasks = _tasks(design)
    level = _pick(data, _levels(design), "level")
    if kind == "work" and tasks:
        # few tasks, values Python calls equal: 1, 1.0 and true meet often
        task = _pick(data, tasks[:3], "task")
        task["work"] = data.draw(st.sampled_from([1, 1.0, True, 2, 2.0, 7.5]))
    elif kind == "label" and tasks:
        _pick(data, tasks, "task")["label"] = data.draw(st.text("ab", max_size=3))
    elif kind == "program" and tasks:
        _pick(data, tasks, "task")["program"] = data.draw(st.sampled_from(
            [None, "input a\noutput r\nr := a", "output r\nr := 1"]))
    elif kind == "meta" and tasks:
        _pick(data, tasks, "task")["meta"] = data.draw(st.dictionaries(
            st.sampled_from(["k", "j"]), st.one_of(st.integers(0, 3), st.floats(0, 3)),
            max_size=2))
    elif kind == "arc added" and len(level["nodes"]) > 1:
        src = _pick(data, level["nodes"], "src")["name"]
        dst = _pick(data, level["nodes"], "dst")["name"]
        level["arcs"].append({"src": src, "dst": dst, "var": "x", "size": 1.0})
    elif kind == "arc removed" and level["arcs"]:
        level["arcs"].pop(data.draw(st.integers(0, len(level["arcs"]) - 1)))
    elif kind == "node added":
        level["nodes"].append({"kind": "task", "name": f"added{fresh}", "label": "",
                               "work": 1.0, "program": None, "meta": {}})
    elif kind == "node removed" and level["nodes"]:
        gone = level["nodes"].pop(data.draw(st.integers(0, len(level["nodes"]) - 1)))
        if data.draw(st.booleans(), label="drop its arcs"):
            level["arcs"] = [a for a in level["arcs"]
                             if gone["name"] not in (a["src"], a["dst"])]
    elif kind == "machine":
        procs = data.draw(st.sampled_from([2, 4, 8]), label="procs")
        doc["machine"] = make_machine("hypercube", procs, PARAMS).to_dict()
    elif kind == "rename project":
        doc["name"] = data.draw(st.sampled_from(["edit", "other", doc["name"]]))
    elif kind == "rename node" and level["nodes"]:
        _pick(data, level["nodes"], "node")["name"] = f"renamed{fresh}"
    elif kind == "refused" and tasks:
        _pick(data, tasks, "task")["work"] = data.draw(st.sampled_from(
            [-1.0, "heavy", float("nan"), float("inf"), None]))
    elif kind == "restore":
        doc = copy.deepcopy(original)
    return doc


DESIGNS = {
    "layered": _layered(24, seed=4),
    "nested": json.loads((EXAMPLES / "lu_decomposition.json").read_text()),
}


OPTIONS = {
    "lint": {"concurrency": True},
    "schedule": {"gantt": True},
    "speedup": {"family": "hypercube", "proc_counts": [1, 2]},
    "sweep": {"family": "ring", "proc_counts": [3], "schedulers": ["mh", "etf"]},
    "simulate": {},
    "codegen": {"target": "threads"},
}
GRAPHS = {
    "layered": _layered(120),
    "nested": DESIGNS["nested"],
}


def _edge_lists(memo: RequestMemo) -> list:
    """The kept design's, its subgraphs' and the flat graph's edge lists
    and adjacency maps, each beside a copy of what it holds."""
    kept = memo._kept
    graphs, found = [kept.design], []
    for graph in graphs:
        graphs.extend(graph.subgraph(node.name) for node in graph.composites)
        found += [graph._arcs, graph._succ, graph._pred]
    if kept.flat is not None:
        found += [kept.flat._edges, kept.flat._succ, kept.flat._pred]
    return [(held, _held(held)) for held in found]


def _held(lists):
    """A list's items, or each list of a map with its items."""
    if isinstance(lists, list):
        return list(lists)
    return {name: (edges, list(edges)) for name, edges in lists.items()}


@pytest.mark.parametrize("op, design", [
    (op, design) for op in sorted(OPTIONS) for design in sorted(GRAPHS)
    # only the nested design's tasks carry programs to generate code from
    if (op, design) != ("codegen", "layered")
])
def test_no_op_changes_the_kept_graphs_edges(op, design):
    """Each op served twice through one memo, the second time one task
    edited: the second request's graphs are patched over the first's very
    edge lists and adjacency, and neither op changed what they hold.  The
    graphs share them, so nothing but this keeps the kept ones as built."""
    doc = GRAPHS[design]
    payload = {"project": doc, **OPTIONS[op]}
    if op == "schedule":
        payload["base_schedule"] = ops.execute("schedule", {"project": doc})[
            "result"]["schedule"]
    edited = copy.deepcopy(payload)
    _tasks(edited["project"]["design"])[-1]["work"] = 3.25
    memo = RequestMemo()
    assert serve(ops.execute, op, _body(payload), memo)[0] == "ok"
    kept = _edge_lists(memo)
    outcome = serve(ops.execute, op, _body(edited), memo)
    assert outcome[0] == "ok", outcome
    assert outcome[1]["counters"]["graph_patched"] == 1
    now = _edge_lists(memo)
    assert len(now) == len(kept) >= 3
    for (held, before), (shared, _) in zip(kept, now):
        assert shared is held
        assert _held(held) == before
        if isinstance(before, dict):
            assert all(held[name] is edges for name, (edges, _) in before.items())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_any_sequence_of_edits_answers_what_a_cold_serve_answers(data):
    """Field edits, arc and node edits, machine, base and name changes and
    refused edits, in any order: every reply and refusal of a worker's memo
    equals a memo-less serve's, so whatever the memo kept, equal bytes get
    the reply the daemon cached."""
    original = DESIGNS[data.draw(st.sampled_from(sorted(DESIGNS)), label="design")]
    doc = original
    bases = [None] + [
        ops.execute("schedule", {"project": original, "scheduler": name})[
            "result"]["schedule"]
        for name in ("mh", "etf")
    ]
    memo = RequestMemo()
    replies: dict[str, tuple] = {}
    for step in range(data.draw(st.integers(2, 7), label="steps")):
        doc = _edit(data, doc, original, step)
        op = data.draw(st.sampled_from(["schedule", "schedule", "lint", "simulate"]))
        payload = {"project": doc}
        base = data.draw(st.sampled_from(bases), label="base")
        if op == "schedule" and base is not None:
            payload["base_schedule"] = base
        body = _body(payload)
        outcome, key = _keyed(op, body, memo)
        got = _comparable(outcome)
        assert got == _cold(op, body), (op, got)
        assert replies.setdefault(key, got) == got
        if got[0] == "ok" and op == "schedule":
            bases.append(json.loads(got[1])["schedule"])


# --------------------------------------------------------------------- #
# the live daemon
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [0, 1])
def test_the_live_daemon_shows_the_patched_path(daemon_factory, workers):
    """A schedule, then two edits of different tasks against its answer:
    the first request is built cold, both edits are patched, and each
    reply is, byte for byte, what ``ops.execute`` answers in-process."""
    harness = daemon_factory(workers=workers)
    doc = _layered(60)
    base = harness.client.schedule(doc)["schedule"]
    payloads = [{"project": _with_work(doc, victim), "base_schedule": base}
                for victim in (5, 40)]
    # encoded as the client encoded the first request, so the memo patches
    replies = [harness.post_bytes("/schedule", json.dumps(payload, sort_keys=True).encode())
               for payload in payloads]
    deadline = time.monotonic() + 15
    while harness.client.metrics()["server"]["in_flight"]:
        assert time.monotonic() < deadline
        time.sleep(0.05)
    work = harness.client.metrics()["server"]["work"]
    assert (work["graph_cold"], work["graph_patched"]) == (1, 2), work
    for payload, reply in zip(payloads, replies):
        assert reply == (200, json_body(ops.execute("schedule", payload)["result"]))

"""An unchanged base is paid for once.

A worker whose memo kept an edit's ``base_schedule`` also keeps that base's
full replay (``repro.sched.incremental.Replay``), and every later edit of
the same graph structure forks its clean prefix off it instead of placing
each clean task; only the dirty tasks are ranked.  A base whose text is
the kept one's is not decoded again.  The work is counted here by wrapping
the functions, and every reply and refusal is compared, byte for byte,
with a serve that keeps nothing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import marshal
import operator
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.lru import LEDGER
from repro.machine import MachineParams
from repro.graph import analysis
from repro.graph.taskgraph import TaskGraph, TaskSpec
from repro.sched import core, incremental, metrics, serialize
from repro.sched.core import KernelState
from repro.server import memo as memo_module
from repro.server import ops
from repro.server.memo import RequestMemo
from repro.server.protocol import json_body
from repro.server.workers import serve

#: No process startup: a task of work 0 takes no time, so such tasks tie
#: on start with their neighbours.
PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0, hop_latency=0.1)


def _layered(n: int, seed: int = 1, zeros: tuple[int, ...] = ()) -> dict:
    """A layered design on 8 processors; the tasks at ``zeros`` have work 0.
    (Few: the schedulers refuse many designs with zero-width tasks, see
    ROADMAP.)"""
    graph = random_layered(n, 6, edge_prob=0.12, seed=seed)
    for index in zeros:
        graph.set_work(graph.task_names[index], 0.0)
    project = BangerProject("kept").set_design(as_dataflow(graph))
    return project.set_machine("hypercube", 8, PARAMS).to_dict()


def _tasks(doc: dict) -> list[dict]:
    return [node for node in doc["design"]["nodes"] if node["kind"] == "task"]


def _with_work(doc: dict, index: int, work: float | None = None) -> dict:
    edited = copy.deepcopy(doc)
    task = _tasks(edited)[index]
    task["work"] = task["work"] * 2.0 + 1.0 if work is None else work
    return edited


def _base(doc: dict, scheduler: str = "mh") -> dict:
    return ops.execute("schedule", {"project": doc, "scheduler": scheduler})[
        "result"]["schedule"]


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _comparable(outcome: tuple) -> tuple:
    """A job outcome as a reply: its bytes, or its refusal."""
    if outcome[0] == "ok":
        return "ok", outcome[1]["body"]
    if outcome[0] == "error":
        return "error", outcome[1], outcome[2].splitlines()[0]
    return outcome


def _cold(body: bytes) -> tuple:
    return _comparable(serve(ops.execute, "schedule", body))


def _keyed(body: bytes, memo: RequestMemo | None = None) -> tuple[tuple, str]:
    """A job served as a worker serves it, and the key the daemon caches
    its reply under: the hash of its op and body."""
    outcome = serve(ops.execute, "schedule", body, memo)
    return outcome, hashlib.sha256(b"schedule\0" + body).hexdigest()


def _retimes(outcome: tuple) -> tuple[int, int]:
    counters = outcome[1]["counters"]
    return counters["retime_forked"], counters["retime_replayed"]


@pytest.fixture
def counted(monkeypatch):
    """Tasks placed, prefix replays and the tasks b-levels were computed
    for, counted by wrapping the functions."""
    seen = {"placed": [], "replay_prefix": 0, "levels": []}
    place, replay, levels = KernelState.place, incremental.replay_prefix, core.b_levels

    def counting_place(self, ti, proc, start):
        seen["placed"].append(self.kernel.tasks[ti])
        return place(self, ti, proc, start)

    def counting_replay(*args, **kwargs):
        seen["replay_prefix"] += 1
        return replay(*args, **kwargs)

    def counting_levels(*args, **kwargs):
        found = levels(*args, **kwargs)
        seen["levels"].append(set(found))
        return found

    monkeypatch.setattr(KernelState, "place", counting_place)
    monkeypatch.setattr(incremental, "replay_prefix", counting_replay)
    monkeypatch.setattr(core, "b_levels", counting_levels)
    ops.shared_service().clear()
    yield seen
    ops.shared_service().clear()


def _zero(seen: dict) -> None:
    seen.update(placed=[], replay_prefix=0, levels=[])


def _edits(doc: dict, victims: tuple[int, ...]) -> list[bytes]:
    """The unedited design, then one work edit per victim, all against
    the design's own schedule."""
    base = _base(doc)
    docs = [doc] + [_with_work(doc, victim) for victim in victims]
    return [_body({"project": d, "scheduler": "mh", "base_schedule": base})
            for d in docs]


# --------------------------------------------------------------------- #
# counted: an edit against a kept, already replayed base
# --------------------------------------------------------------------- #
def test_a_work_edit_places_only_its_dirty_tasks(counted):
    bodies = _edits(_layered(120), (7, 61, 90))
    memo = RequestMemo()
    for body in bodies[:3]:  # kept, then replayed whole by the first edit
        assert serve(ops.execute, "schedule", body, memo)[0] == "ok"
    _zero(counted)
    outcome = serve(ops.execute, "schedule", bodies[3], memo)
    assert outcome[0] == "ok"
    n_dirty = json.loads(outcome[1]["body"])["incremental"]["n_dirty"]
    assert 0 < n_dirty < 120
    assert len(counted["placed"]) == n_dirty
    assert counted["replay_prefix"] == 0
    assert counted["levels"] == [set(counted["placed"])]
    assert _retimes(outcome) == (1, 0)
    assert _comparable(outcome) == _cold(bodies[3])


def _adjacency(memo: RequestMemo) -> list:
    """The kept design's and flat graph's edge list and adjacency."""
    design, flat = memo._kept.design, memo._kept.flat
    return [design._arcs, design._succ, design._pred,
            flat._edges, flat._succ, flat._pred]


def test_a_forked_one_task_edit_shares_its_graphs_and_kernel_tables(monkeypatch):
    """A one-task edit after a fork builds no graph tables, copies no
    adjacency (its design and flat graph hold the kept graphs' own edge
    lists), and computes execution times for its changed tasks alone."""
    doc = _layered(120)
    bodies = _edits(doc, (7, 61, 90))
    memo = RequestMemo()
    for body in bodies[:3]:  # kept, replayed whole and forked, forked
        assert serve(ops.execute, "schedule", body, memo)[0] == "ok"
    kept = _adjacency(memo)
    tables, times = [], []
    build, exec_time = core.GraphTables.__init__, PARAMS.exec_time.__func__
    monkeypatch.setattr(core.GraphTables, "__init__",
                        lambda self, graph: tables.append(graph) or build(self, graph))
    monkeypatch.setattr(type(PARAMS), "exec_time",
                        lambda self, work: times.append(work) or exec_time(self, work))
    outcome = serve(ops.execute, "schedule", bodies[3], memo)
    assert _retimes(outcome) == (1, 0)
    assert tables == []
    assert all(map(operator.is_, _adjacency(memo), kept))
    # task 61 put back and task 90 edited: the two changed specs
    names = [t["name"] for t in _tasks(doc)]
    flat = memo._kept.flat
    assert sorted(times) == sorted(flat.work(names[i]) for i in (61, 90))
    monkeypatch.undo()
    assert _comparable(outcome) == _cold(bodies[3])


def test_a_derived_kernel_equals_a_built_one():
    """The kernel a fork derives from the last fork's has the tables and
    execution times a kernel built for its graph has."""
    placed = serialize.schedule_from_dict(_base(_layered(120)))
    kept = incremental.Replay(placed)
    graph = placed.graph
    for step, task in enumerate(graph.task_names[3:120:29]):
        spec = graph.task(task)
        graph = graph.replaced({task: TaskSpec(task, work=spec.work * 3.0 + 1.0)})
        fork = incremental.incremental_reschedule(kept, graph).forked
        assert fork is not None and fork.changed == (None if step == 0 else [task])
        derived, built = fork.kernel, core.SchedKernel(graph, placed.machine)
        assert derived.graph is graph
        for name in ("tasks", "index", "in_edges", "succ_idx", "exec_time"):
            assert getattr(derived, name) == getattr(built, name), name
        assert derived.b_levels_comm() == built.b_levels_comm()
        assert derived.static_levels() == built.static_levels()


def test_the_first_edit_builds_the_replay_once(counted):
    """The base arrives, then two edits: the first replays every base task
    once, and forks; the second only forks."""
    bodies = _edits(_layered(120), (7, 61))
    memo = RequestMemo()
    serve(ops.execute, "schedule", bodies[0], memo)
    replays = []
    for body in bodies[1:]:
        _zero(counted)
        outcome = serve(ops.execute, "schedule", body, memo)
        replays.append(counted["replay_prefix"])
        assert _retimes(outcome) == (1, 0)
        assert _comparable(outcome) == _cold(body)
    assert replays == [1, 0]


def test_a_one_task_edit_decodes_none_of_the_base(monkeypatch):
    """A base whose text is the kept one's is the kept document: each edit
    decodes the task entries that differ from the last edit's (its own, and
    the one the last edit changed), no part of the base, signs nothing, and
    re-times against the kept base's replay."""
    bodies = _edits(_layered(60), (7, 30, 41))
    memo = RequestMemo()
    serve(ops.execute, "schedule", bodies[0], memo)
    base = memo._kept.base_doc
    decoded, signed = [], []
    decode, dumps = memo_module._decode, marshal.dumps

    def counting_decode(text, at):
        found = decode(text, at)
        decoded.append(found[0])
        return found

    monkeypatch.setattr(memo_module, "_decode", counting_decode)
    monkeypatch.setattr(marshal, "dumps", lambda *args: signed.append(args) or dumps(*args))
    for changed, body in zip((1, 2, 2), bodies[1:]):
        decoded.clear()
        outcome = serve(ops.execute, "schedule", body, memo)
        assert outcome[0] == "ok"
        assert [node["kind"] for node in decoded] == ["task"] * changed
        assert memo._kept.base_doc is base
    assert signed == []
    assert _retimes(outcome) == (1, 0)


def test_a_base_seen_once_costs_what_it_cost(counted):
    """Each edit re-based on the previous reply: every re-time replays its
    clean prefix task by task, and no full replay is ever built."""
    doc = _layered(120)
    base = _base(doc)
    memo = RequestMemo()
    for victim in range(6):
        body = _body({"project": _with_work(doc, victim * 17), "base_schedule": base})
        _zero(counted)
        outcome = serve(ops.execute, "schedule", body, memo)
        assert counted["replay_prefix"] == 1
        assert _retimes(outcome) == (0, 1)
        assert _comparable(outcome) == _cold(body)
        base = json.loads(outcome[1]["body"])["schedule"]


def test_direct_callers_replay_as_before(counted):
    bodies = _edits(_layered(60), (7, 30))
    for body in bodies[1:]:
        _zero(counted)
        ops.execute("schedule", json.loads(body))
        assert counted["replay_prefix"] == 1


@pytest.fixture
def calls(monkeypatch):
    """The diff, report and encoding work of a request, counted by wrapping
    the functions: each call's first argument (or ``tasks``) is kept."""
    seen: dict[str, list] = {}

    def wrap(owner, name, arg=lambda args, kwargs: args[0] if args else None):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.setdefault(name, []).append(arg(args, kwargs))
            if name == "dirty_closure":
                seen["dirty"] = result
            return result

        monkeypatch.setattr(owner, name, counting)

    wrap(incremental, "same_signature", lambda args, kwargs: args[2])
    wrap(incremental, "dirty_closure")
    levels_tasks = lambda args, kwargs: kwargs.get("tasks")  # noqa: E731
    for owner in (analysis, core, metrics):
        wrap(owner, "b_levels", levels_tasks)
    for owner in (metrics, serialize):
        wrap(owner, "message_stats")
    for owner in (ops, serialize):
        wrap(owner, "schedule_to_dict")
    wrap(serialize, "taskgraph_to_dict")
    wrap(serialize, "schedule_from_dict")
    wrap(serialize, "_placement_dict", lambda args, kwargs: args[0].task)
    wrap(serialize, "_message_dict", lambda args, kwargs: args[0].dst_task)
    wrap(TaskGraph, "content_hash")
    yield seen
    ops.shared_service().clear()


def test_a_forked_edit_diffs_reports_and_encodes_only_its_edit(calls):
    """After a fork, the next edit diffs only the last edit's task and its
    own, re-levels no whole graph, sums no messages, and encodes only its
    dirty placements and the messages into them: the rest of its reply is
    spliced from what the kept replay holds, byte for byte the cold reply."""
    doc = _layered(120)
    bodies = _edits(doc, (7, 61, 90))
    memo = RequestMemo()
    for body in bodies[:3]:  # kept, replayed whole and forked, forked
        assert serve(ops.execute, "schedule", body, memo)[0] == "ok"
    calls.clear()
    outcome = serve(ops.execute, "schedule", bodies[3], memo)
    assert _retimes(outcome) == (1, 0)
    names = [t["name"] for t in _tasks(doc)]
    # the last edit's seed was task 61, and 61 (put back) and 90 changed
    assert sorted(calls["same_signature"]) == sorted([names[61], names[90]])
    assert calls["b_levels"] and None not in calls["b_levels"]
    for whole in ("message_stats", "schedule_to_dict", "taskgraph_to_dict"):
        assert whole not in calls, whole
    dirty = calls["dirty"]
    reply = json.loads(outcome[1]["body"])
    assert len(dirty) == reply["incremental"]["n_dirty"] > 0
    assert set(calls["_placement_dict"]) <= dirty
    into_dirty = [m for m in reply["schedule"]["messages"] if m["dst_task"] in dirty]
    assert len(calls["_placement_dict"]) == len(dirty)
    assert len(calls.get("_message_dict", [])) <= len(into_dirty)
    assert _comparable(outcome) == _cold(bodies[3])


def test_a_label_edit_against_a_kept_base_reads_no_whole_base(calls):
    """A label edit dirties nothing: the kept replay holds the base graph's
    hash, so the edit hashes its own graph once and never reads the whole
    base document."""
    doc = _layered(60)
    base = _base(doc)
    memo = RequestMemo()
    labels = ["first", "second", "third"]
    bodies = [_body({"project": d, "base_schedule": base})
              for d in [doc, _with_work(doc, 9)] + [_labelled(doc, 3, x) for x in labels]]
    for body in bodies[:3]:  # kept, forked, and the base hashed once
        assert serve(ops.execute, "schedule", body, memo)[0] == "ok"
    for body in bodies[3:]:
        calls.clear()
        outcome = serve(ops.execute, "schedule", body, memo)
        assert json.loads(outcome[1]["body"])["incremental"]["n_dirty"] == 0
        assert "schedule_from_dict" not in calls
        assert len(calls.get("content_hash", [])) <= 1
        assert _comparable(outcome) == _cold(body)


def _labelled(doc: dict, index: int, label: str) -> dict:
    edited = copy.deepcopy(doc)
    _tasks(edited)[index]["label"] = label
    return edited


def _swaps_changing_the_volume(doc: dict, base: dict):
    """``doc`` with two neighbouring storage nodes swapped, among those
    that touch no common task — so every task keeps its own edge order and
    the design forks — whose whole float volume sums, in the other edge
    order, to another last bit: what a memo-less serve reports."""
    nodes, arcs = doc["design"]["nodes"], doc["design"]["arcs"]

    def touched(name: str) -> set[str]:
        return ({a["src"] for a in arcs if a["dst"] == name}
                | {a["dst"] for a in arcs if a["src"] == name})

    def volume(d: dict) -> float:
        body = _body({"project": d, "base_schedule": base})
        return json.loads(_cold(body)[1])["report"]["comm_volume"]

    before = volume(doc)
    storage = [i for i, n in enumerate(nodes) if n["kind"] == "storage"]
    for i, j in zip(storage, storage[1:]):
        if touched(nodes[i]["name"]) & touched(nodes[j]["name"]):
            continue
        swapped = copy.deepcopy(doc)
        swapped_nodes = swapped["design"]["nodes"]
        swapped_nodes[i], swapped_nodes[j] = swapped_nodes[j], swapped_nodes[i]
        if volume(swapped) != before:
            yield swapped


def test_a_fork_over_other_edges_sums_its_messages_again():
    """A fork's message volume is read again when its graph is not over
    the previous fork's edges: a design whose storage nodes were swapped
    is built cold, forks (each task keeps its edge order), and sums its
    non-integral sizes in its own edge order, as a memo-less serve does."""
    doc = _layered(60)
    base = _base(doc)
    swapped = next(_swaps_changing_the_volume(doc, base))
    memo = RequestMemo()
    for d in (doc, _with_work(doc, 9), swapped):  # kept, forked, forked cold
        body = _body({"project": d, "base_schedule": base})
        outcome = serve(ops.execute, "schedule", body, memo)
        assert _comparable(outcome) == _cold(body)
    assert _retimes(outcome) == (1, 0)
    assert outcome[1]["counters"]["graph_cold"] == 1


def test_a_reply_reads_whole_after_a_fork_it_was_not_made_for():
    """Three forks over one edge list, the second never replied to (as when
    its request fails after the re-time): the third's reply reads its graph
    whole, since what changed is named against the second's graph."""
    placed = serialize.schedule_from_dict(_base(_layered(60)))
    kept = incremental.Replay(placed)
    graph = placed.graph
    for step, task in enumerate(graph.task_names[5:35:10]):
        spec = graph.task(task)
        graph = graph.replaced({task: TaskSpec(task, work=spec.work * 3.0 + 1.0)})
        result = incremental.incremental_reschedule(kept, graph)
        assert result.forked is not None and result.forked.n == step + 1
        if step == 1:
            continue
        schedule = result.schedule
        assert serialize.fork_reply(schedule, result.forked) == (
            metrics.report(schedule),
            serialize.encode_json(serialize.schedule_to_dict(schedule)),
        )


# --------------------------------------------------------------------- #
# the structure condition
# --------------------------------------------------------------------- #
def _structural(doc: dict, kind: str) -> dict:
    edited = copy.deepcopy(doc)
    design = edited["design"]
    tasks = _tasks(edited)
    if kind == "work 0":
        tasks[3]["work"] = 0
    elif kind == "label only":
        tasks[3]["label"] = "renamed"
    elif kind == "arc added":
        design["arcs"].append({"src": tasks[0]["name"], "dst": tasks[-1]["name"],
                               "var": "extra", "size": 1.0})
    elif kind == "arc removed":
        design["arcs"].pop(len(design["arcs"]) // 2)
    elif kind == "arcs reordered":  # a flat edge per storage node, in node order
        storage = iter(reversed([n for n in design["nodes"] if n["kind"] == "storage"]))
        design["nodes"] = [next(storage) if n["kind"] == "storage" else n
                           for n in design["nodes"]]
    elif kind == "node added":
        design["nodes"].append({"kind": "task", "name": "added", "label": "",
                                "work": 1.0, "program": None, "meta": {}})
    elif kind == "node removed":
        gone = tasks[len(tasks) // 2]["name"]
        design["nodes"] = [n for n in design["nodes"] if n["name"] != gone]
        design["arcs"] = [a for a in design["arcs"] if gone not in (a["src"], a["dst"])]
    elif kind == "size retyped":  # whole floats (_integral_sizes) become ints
        for node in design["nodes"]:
            if node["kind"] == "storage":
                node["size"] = int(node["size"])
    return edited


def _integral_sizes(doc: dict) -> dict:
    """``doc`` with every storage size a whole float, so that a retyped
    size is equal in Python and different in a reply."""
    doc = copy.deepcopy(doc)
    for node in doc["design"]["nodes"]:
        if node["kind"] == "storage":
            node["size"] = float(round(node["size"]) or 1)
    return doc


@pytest.mark.parametrize("kind, forks", [
    ("work 0", True), ("label only", True), ("arc added", False),
    ("arc removed", False), ("arcs reordered", False), ("node added", False),
    ("node removed", False), ("size retyped", False),
])
def test_only_an_edit_of_the_same_structure_forks(kind, forks):
    ops.shared_service().clear()
    doc = _integral_sizes(_layered(60))
    base = _base(doc)
    memo = RequestMemo()
    for warm in (doc, _with_work(doc, 9)):  # kept, then replayed whole
        serve(ops.execute, "schedule",
              _body({"project": warm, "base_schedule": base}), memo)
    body = _body({"project": _structural(doc, kind), "base_schedule": base})
    outcome = serve(ops.execute, "schedule", body, memo)
    assert outcome[0] == "ok"
    assert _retimes(outcome) == ((1, 0) if forks else (0, 1))
    assert _comparable(outcome) == _cold(body)


def test_a_duplicated_base_is_never_forked():
    doc = _layered(60)
    base = _base(doc, "dsh")
    memo = RequestMemo()
    for victim in (None, 9, 30, 41):
        edited = doc if victim is None else _with_work(doc, victim)
        body = _body({"project": edited, "base_schedule": base})
        outcome = serve(ops.execute, "schedule", body, memo)
        assert outcome[1]["counters"]["retime_forked"] == 0
        assert _comparable(outcome) == _cold(body)


def test_the_kept_replay_is_never_mutated():
    bodies = _edits(_layered(60), (9, 30, 41))
    memo = RequestMemo()
    for body in bodies[:2]:
        serve(ops.execute, "schedule", body, memo)
    replayed = memo._kept.replay()
    before = (
        {p: list(t) for p, t in replayed._by_proc.items()},
        {t: list(c) for t, c in replayed._by_task.items()},
        list(replayed.messages),
    )
    for body in bodies[2:]:
        assert serve(ops.execute, "schedule", body, memo)[0] == "ok"
    assert memo._kept.replay() is replayed
    assert (replayed._by_proc, replayed._by_task, replayed.messages) == before


def test_the_live_daemon_shows_the_forked_path(daemon_factory):
    harness = daemon_factory(workers=1)
    doc = _layered(60)
    base = harness.client.schedule(doc)["schedule"]
    for victim in (5, 40, 12):
        payload = {"project": _with_work(doc, victim), "base_schedule": base}
        # encoded as the client encoded the first request, so the memo patches
        reply = harness.post_bytes("/schedule", json.dumps(payload, sort_keys=True).encode())
        assert reply == (200, json_body(ops.execute("schedule", payload)["result"]))
    deadline = time.monotonic() + 15
    while harness.client.metrics()["server"]["in_flight"]:
        assert time.monotonic() < deadline
        time.sleep(0.05)
    work = harness.client.metrics()["server"]["work"]
    assert work["retime_forked"] >= 1, work


# --------------------------------------------------------------------- #
# byte identity: random edit sequences against one kept base
# --------------------------------------------------------------------- #
ORIGINAL = _integral_sizes(_layered(24, zeros=(4, 8, 10)))
BASES = {
    "mh": _base(ORIGINAL, "mh"),
    "etf": _base(ORIGINAL, "etf"),
    "dsh": _base(ORIGINAL, "dsh"),
}
BASES["incomplete"] = {**BASES["mh"], "placements": BASES["mh"]["placements"][:-1]}


def _pick(data, items: list, what: str):
    return items[data.draw(st.integers(0, len(items) - 1), label=what)]


def _edit(data, doc: dict, fresh: int) -> dict:
    """One random edit of ``doc``; same-structure edits come most often."""
    kind = data.draw(st.sampled_from([
        "work", "work", "work", "work 0", "work 0", "work retyped", "work retyped",
        "label", "label", "meta", "meta", "arc added", "arc removed", "arcs reordered", "arcs reordered",
        "size retyped", "size retyped", "node added", "node removed",
        "refused", "restore",
    ]), label="edit")
    doc = copy.deepcopy(doc)
    design = doc["design"]
    tasks = _tasks(doc)
    if kind == "work" and tasks:
        _pick(data, tasks, "task")["work"] = data.draw(
            st.sampled_from([1, 1.0, 2.5, 7, True]))
    elif kind == "work 0" and tasks:
        _pick(data, tasks, "task")["work"] = data.draw(st.sampled_from([0, 0.0]))
    elif kind == "work retyped" and tasks:  # equal in Python, not in a reply
        task = _pick(data, tasks, "task")
        work = task["work"]
        if isinstance(work, float) and work.is_integer():
            task["work"] = int(work)
        elif type(work) is int:
            task["work"] = float(work)
    elif kind == "label" and tasks:
        _pick(data, tasks, "task")["label"] = data.draw(st.text("aé✓", max_size=3))
    elif kind == "meta" and tasks:
        _pick(data, tasks, "task")["meta"] = data.draw(st.dictionaries(
            st.text("kü", max_size=2), st.one_of(st.text("ß→", max_size=2),
                                                  st.sampled_from([1, 1.0]))))
    elif kind == "arc added" and len(design["nodes"]) > 1:
        src = _pick(data, design["nodes"], "src")["name"]
        dst = _pick(data, design["nodes"], "dst")["name"]
        design["arcs"].append({"src": src, "dst": dst, "var": f"x{fresh}", "size": 1.0})
    elif kind == "arc removed" and design["arcs"]:
        design["arcs"].pop(data.draw(st.integers(0, len(design["arcs"]) - 1)))
    elif kind == "arcs reordered":  # a flat edge per storage node, in node order
        nodes = design["nodes"]
        at = [i for i, n in enumerate(nodes) if n["kind"] == "storage"]
        for i, node in zip(at, data.draw(st.permutations([nodes[i] for i in at]),
                                         label="storage order")):
            nodes[i] = node
    elif kind == "size retyped":
        storage = [n for n in design["nodes"] if n["kind"] == "storage"]
        if storage:
            node = _pick(data, storage, "storage")
            size = node["size"]
            node["size"] = int(size) if isinstance(size, float) else float(size)
    elif kind == "node added":
        design["nodes"].append({"kind": "task", "name": f"added{fresh}", "label": "",
                                "work": data.draw(st.sampled_from([0.0, 1.5])),
                                "program": None, "meta": {}})
    elif kind == "node removed" and design["nodes"]:
        gone = design["nodes"].pop(data.draw(st.integers(0, len(design["nodes"]) - 1)))
        design["arcs"] = [a for a in design["arcs"]
                          if gone["name"] not in (a["src"], a["dst"])]
    elif kind == "refused" and tasks:
        _pick(data, tasks, "task")["work"] = data.draw(st.sampled_from(
            [-1.0, "heavy", float("nan"), None]))
    elif kind == "restore":
        doc = copy.deepcopy(ORIGINAL)
    return doc


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_any_sequence_against_a_kept_base_answers_what_a_cold_serve_answers(data):
    """Work edits (work 0 among them, and works that change type only),
    non-ASCII label and meta edits, arcs added, removed, reordered or
    retyped, nodes added or removed, refused edits and the base design
    restored, each against one kept base (``mh``, ``etf``, ``dsh`` or
    incomplete): every reply and refusal of a worker's memo equals a
    memo-less serve's byte for byte — a forked reply is spliced from kept
    pieces, so a stale or wrongly keyed one would show — and whatever the
    memo kept, equal bytes get the reply the daemon cached."""
    base = BASES[data.draw(st.sampled_from(sorted(BASES)), label="base")]
    memo = RequestMemo()
    doc = ORIGINAL
    replies: dict[str, tuple] = {}
    for step in range(data.draw(st.integers(2, 10), label="steps")):
        if step:
            doc = _edit(data, doc, step)
        body = _body({"project": doc, "base_schedule": base})
        outcome, key = _keyed(body, memo)
        got = _comparable(outcome)
        assert got == _cold(body), got
        assert replies.setdefault(key, got) == got


def test_the_sequences_fork():
    """What the sequence test compares is the forked path: a run of work
    edits against the ``mh`` base forks after the first, and the complete
    bases hold zero-width tasks that tie on start with another."""
    for name in ("mh", "etf", "dsh"):
        slots = [(p["proc"], p["start"]) for p in BASES[name]["placements"]]
        assert len(set(slots)) < len(slots), name
    before = LEDGER.snapshot()
    memo = RequestMemo()
    for victim in (None, 3, 9, 15):
        doc = ORIGINAL if victim is None else _with_work(ORIGINAL, victim, 0.0)
        body = _body({"project": doc, "base_schedule": BASES["mh"]})
        assert _comparable(serve(ops.execute, "schedule", body, memo)) == _cold(body)
    assert LEDGER.since(before)["retime_forked"] == 3

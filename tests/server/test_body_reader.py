"""The memo's body reader reads what ``parse_body`` reads.

A worker reads each body against the text of its last one
(``repro.server.memo.read_body``): a value whose text is the kept one's is
the kept object, anything else is decoded.  Over bodies mutated from a kept
one — values equal in Python but not in text, reordered, duplicated and
spaced keys, changed arcs, bases and machines, and bodies that are no JSON
object at all — the payload read equals ``parse_body``'s byte for byte
under ``marshal`` (key order and types count), or both refuse the body
with the same message.  And since the next payload shares the kept one's
objects, no read and no op may change a kept payload.
"""

from __future__ import annotations

import json
import marshal
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams, make_machine
from repro.server import ops
from repro.server.memo import RequestMemo, read_body
from repro.server.protocol import ProtocolError, parse_body
from repro.server.workers import serve

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0, hop_latency=0.1)
EXAMPLES = pathlib.Path(__file__).parents[2] / "examples"


def _payload(doc: dict) -> dict:
    base = ops.execute("schedule", {"project": doc})["result"]["schedule"]
    return {"project": doc, "scheduler": "mh", "base_schedule": base}


def _layered() -> dict:
    graph = random_layered(14, 4, edge_prob=0.2, seed=3)
    project = BangerProject("reader").set_design(as_dataflow(graph))
    return project.set_machine("hypercube", 4, PARAMS).to_dict()


PAYLOADS = {
    "layered": _payload(_layered()),
    "nested": _payload(json.loads((EXAMPLES / "lu_decomposition.json").read_text())),
}


def _sig(value) -> bytes:
    """Type-exact content bytes; version 2 writes no references."""
    return marshal.dumps(value, 2)


def _read(read, body: bytes):
    try:
        return "ok", read(body)
    except ProtocolError as exc:
        return "refused", str(exc)


def _objects(value) -> list[dict]:
    """The objects the reader walks: the payload, the project, each design
    document and each of its node entries, depth first."""
    out = [value]
    project = value.get("project")
    if isinstance(project, dict):
        out.append(project)
        designs = [project.get("design")]
        while designs:
            design = designs.pop()
            if not isinstance(design, dict):
                continue
            out.append(design)
            for node in design.get("nodes", []) if isinstance(design.get("nodes"), list) else []:
                if isinstance(node, dict):
                    out.append(node)
                    designs.append(node.get("subgraph"))
    return out


def _tasks(value) -> list[dict]:
    return [o for o in _objects(value) if o.get("kind") == "task"]


def _pick(data, items: list, what: str):
    return items[data.draw(st.integers(0, len(items) - 1), label=what)]


def _spliced(body: bytes, obj: dict, text: bytes) -> bytes:
    """``body`` with ``obj``'s encoding (found as ``json.dumps`` writes it)
    replaced by ``text``; the body as it is if that encoding is not in it."""
    old = json.dumps(obj).encode()
    at = body.find(old)
    return body if at < 0 else body[:at] + text + body[at + len(old):]


def _mutated(data, body: bytes) -> bytes:
    """One mutation of ``body``, which parses to an object."""
    doc = json.loads(body)
    kind = data.draw(st.sampled_from([
        "retype", "retype", "field", "reorder", "duplicate", "spaces", "spaced",
        "arc", "base", "machine", "node", "truncate", "trailing", "utf-8",
        "deep", "byte", "unchanged",
    ]), label="mutation")
    tasks = _tasks(doc)
    if kind == "retype":  # a composite's fields are read one by one
        task = _pick(data, [o for o in _objects(doc) if "work" in o], "node")
        field = data.draw(st.sampled_from(["work", "label", "meta"]), label="field")
        task[field] = data.draw(st.sampled_from([1, 1.0, True, 0, -0.0, 2.5, None]))
    elif kind == "field" and tasks:
        _pick(data, tasks, "task")["label"] = data.draw(st.text("aé✓\"\\", max_size=3))
    elif kind == "reorder":
        obj = _pick(data, _objects(doc), "object")
        items = list(obj.items())
        obj.clear()
        obj.update(reversed(items))
    elif kind == "duplicate":
        obj = _pick(data, _objects(doc), "object")
        if obj:
            key = _pick(data, list(obj), "key")
            pair = json.dumps({key: data.draw(st.sampled_from(
                [obj[key], 1, 1.0, True, "x", [], {}]), label="value")})[1:-1].encode()
            text = json.dumps(obj).encode()
            spliced = (b"{" + pair + b", " + text[1:] if data.draw(st.booleans(), label="first")
                       else text[:-1] + b", " + pair + b"}")
            return _spliced(json.dumps(doc).encode(), obj, spliced)
    elif kind == "spaces":
        return json.dumps(doc, **data.draw(st.sampled_from([
            {"indent": 1}, {"separators": (",", ":")}, {"indent": "\t"},
            {"separators": (" ,\n", " :\r")}]), label="style")).encode()
    elif kind == "spaced":
        obj = _pick(data, _objects(doc), "object")
        return _spliced(json.dumps(doc).encode(), obj,
                        json.dumps(obj, indent=data.draw(st.integers(0, 2))).encode())
    elif kind == "arc":
        design = _pick(data, [o for o in _objects(doc) if "arcs" in o], "design")
        if design["arcs"]:
            arc = _pick(data, design["arcs"], "arc")
            arc["size"] = data.draw(st.sampled_from([1, 1.0, 3.5]))
            if data.draw(st.booleans(), label="drop"):
                design["arcs"].remove(arc)
    elif kind == "base":
        base = doc.get("base_schedule")
        if isinstance(base, dict) and base.get("placements"):
            placement = _pick(data, base["placements"], "placement")
            placement["start"] = data.draw(st.sampled_from([0, 0.0, 1.5]))
        else:
            doc["base_schedule"] = PAYLOADS["layered"]["base_schedule"]
    elif kind == "machine":
        doc["project"]["machine"] = make_machine(
            "hypercube", data.draw(st.sampled_from([2, 4])), PARAMS).to_dict()
    elif kind == "node":
        design = _pick(data, [o for o in _objects(doc) if "nodes" in o], "design")
        if design["nodes"] and data.draw(st.booleans(), label="remove"):
            design["nodes"].pop(data.draw(st.integers(0, len(design["nodes"]) - 1)))
        else:
            design["nodes"].insert(0, {"kind": "task", "name": "added", "work": 1})
    elif kind == "truncate":
        return body[:data.draw(st.integers(0, len(body) - 1), label="length")]
    elif kind == "trailing":
        return body + data.draw(st.sampled_from([b" ", b"\n\t", b"x", b"}", b"{}", b"\x00"]))
    elif kind == "utf-8":
        at = data.draw(st.integers(0, len(body)), label="at")
        return body[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + body[at:]
    elif kind == "deep":
        where = data.draw(st.sampled_from(["whole", "project", "node"]), label="where")
        if where == "whole":
            return b"[" * 100_000
        if where == "project":
            return b'{"project": ' + b"[" * 100_000
        return _spliced(json.dumps(doc).encode(),
                        _pick(data, _objects(doc), "object"), b"[" * 100_000)
    elif kind == "byte":
        at = data.draw(st.integers(0, len(body) - 1), label="at")
        return body[:at] + data.draw(st.sampled_from([b" ", b",", b"1", b'"', b""])) + body[at + 1:]
    elif kind == "unchanged":
        return body
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_the_reader_reads_what_parse_body_reads(data):
    """A run of mutated bodies, each read against the last one read: the
    payload is ``parse_body``'s, byte for byte, or both refuse with the
    same message; and no read changes the payload it was read against."""
    original = json.dumps(PAYLOADS[data.draw(st.sampled_from(sorted(PAYLOADS)),
                                             label="design")], sort_keys=True).encode()
    kept, last = None, original
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        body = _mutated(data, last) if data.draw(st.booleans(), label="mutate") else original
        before = None if kept is None else _sig(kept[1][2])
        read = _read(lambda b: read_body(b, kept), body)
        want = _read(parse_body, body)
        if want[0] == "ok":
            assert read[0] == "ok", read
            assert _sig(read[1][0]) == _sig(want[1])
        else:
            assert read == want
        if kept is not None:
            assert _sig(kept[1][2]) == before
        if read[0] == "ok" and read[1][1] is not None:
            kept, last = read[1][1], body


#: Every place a value is kept on its own: a top-level option, a node
#: entry, a composite's field, a nested node entry.
PLACES = ('{"project": {"design": {"nodes": [%s, {"kind": "composite", "work": %s, '
          '"subgraph": {"nodes": [%s, 0]}}, %s]}}, "x": %s}')


@pytest.mark.parametrize("kept, new", [
    ("1", "1.0"), ("1", "12"), ("1", "1e3"), ("1.5", "1.5e1"), ("0", "0.0"),
    ("-1", "-1.0"), ("true", "trueish"), ("null", "nullx"), ('"a"', '"a"1'),
    ("[1]", "[1]2"), ("NaN", "NaN1"),
])
def test_a_kept_text_is_the_value_only_up_to_a_delimiter(kept, new):
    """A kept value's text followed by more of a value is another value
    (or none): read as ``parse_body`` reads it, wherever it stands, and a
    valid body so edited is read by the walk, not handed on whole."""
    _, read = read_body((PLACES % ((kept,) * 5)).encode())
    for at in range(5):
        values = [kept] * 5
        values[at] = new
        body = (PLACES % tuple(values)).encode()
        got = _read(lambda b: read_body(b, read)[0], body)
        want = _read(parse_body, body)
        assert (got[0], _sig(got[1]) if got[0] == "ok" else got[1]) == (
            want[0], _sig(want[1]) if want[0] == "ok" else want[1]), at
        if want[0] == "ok":
            assert read_body(body, read)[1] is not None, at


@pytest.mark.parametrize("separator", [
    b"} {", b"},,{", b"}] {", b"},, {", b"}] [{", b"},\n\t{", b"} ,{"])
@pytest.mark.parametrize("entry", [0, 1, 5])
def test_a_run_of_kept_entries_reads_the_separators_between_them(separator, entry):
    """Unchanged nodes on both sides of a changed separator: a broken one
    is refused with ``parse_body``'s message, a spaced one is read."""
    body = json.dumps(PAYLOADS["layered"], sort_keys=True).encode()
    _, kept = read_body(body)
    at = [i for i in range(len(body)) if body.startswith(b'}, {"kind"', i)][entry]
    edited = body[:at] + separator + body[at + 4:]
    want = _read(parse_body, edited)
    got = _read(lambda b: read_body(b, kept)[0], edited)
    if want[0] == "ok":
        assert _sig(got[1]) == _sig(want[1])
        assert read_body(edited, kept)[1] is not None
    else:
        assert got == want


def test_an_object_body_is_read_by_the_walk():
    """The reader only hands a body to ``parse_body`` when it is no JSON
    object: an edit of a body with a kept entry is read by the walk."""
    body = json.dumps(PAYLOADS["nested"], sort_keys=True).encode()
    payload, kept = read_body(body)
    assert kept is not None and kept[1][2] is payload
    again, _ = read_body(body, kept)
    assert again["project"] is payload["project"] and again is not payload
    assert read_body(b"", kept) == ({}, None)
    for refused in (b"[]", body + b"x", body[:-1], b"\xff" + body):
        with pytest.raises(ProtocolError):
            read_body(refused, kept)


OPTIONS = {
    "lint": {"concurrency": True},
    "schedule": {"gantt": True},
    "speedup": {"family": "hypercube", "proc_counts": [1, 2]},
    "sweep": {"family": "ring", "proc_counts": [3], "schedulers": ["mh", "etf"]},
    "simulate": {},
    "codegen": {"target": "mpi"},
}


@pytest.mark.parametrize("op, design", [
    (op, design) for op in sorted(OPTIONS) for design in sorted(PAYLOADS)
    # only the nested design's tasks carry programs to generate code from
    if (op, design) != ("codegen", "layered")
])
def test_no_op_changes_a_kept_payload(op, design):
    """Each op served twice through one memo, the second time one task
    edited: the payload the first request kept, whose objects the second
    shares, reads as its body did after both; so does the second's."""
    payload = {**PAYLOADS[design], **OPTIONS[op]}
    if op != "schedule":
        del payload["base_schedule"]
    first = json.dumps(payload, sort_keys=True).encode()
    edited = json.loads(first)
    _tasks(edited)[-1]["work"] = 3.25
    second = json.dumps(edited, sort_keys=True).encode()
    memo = RequestMemo()
    for body in (first, second):
        before = memo._kept and memo._kept.read[1][2]
        outcome = serve(ops.execute, op, body, memo)
        assert outcome[0] == "ok", outcome
        assert _sig(memo._kept.read[1][2]) == _sig(parse_body(body))
        if before:
            assert before is not memo._kept.read[1][2]
            assert _sig(before) == _sig(parse_body(first))

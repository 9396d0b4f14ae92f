"""The store, broken on purpose: a stateful property over a shared directory.

Two :class:`ProjectRepository` instances open one directory, as a daemon and
a ``banger projects`` process do, and take turns at ``put`` / ``fork`` /
``get`` / ``gc(max_bytes)`` / reopening, all in one shared tenant.  A model
keeps every version of every ref.  After every step it is checked against a
*freshly opened* repository: each ref's ``log`` has the model's versions, in
order, each version loads (``get(tenant, name, v)``, fingerprint-verified),
a put wrote exactly the blobs the directory lacked (so ``dedup_hits`` never
counts a blob that is not there), and every instance's ``stored_bytes`` is
the bytes under ``objects/``.

A capped ``gc`` may trim the blobs of versions that are not a head ("heads
always survive", docs/projects.md): the model keeps those versions in the
count and the order, and stops requiring them to load.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.graph.serialize import fingerprint
from repro.store import ProjectRepository

PROGRAMS = [f"input a\noutput b\nb := a + {k}" for k in range(3)]
NAMES = ["p", "q", "r"]


def _task(i: int, program: int) -> dict:
    return {"name": f"t{i}", "kind": "task", "program": PROGRAMS[program]}


@st.composite
def project_docs(draw) -> dict:
    """Small documents from a small alphabet, so puts share most blobs."""
    picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    nodes = [_task(i, k) for i, k in enumerate(picks)]
    if draw(st.booleans()):
        inner = {"name": "inner", "nodes": [_task(0, draw(st.integers(0, 2)))]}
        nodes.append({"name": "c", "kind": "composite", "subgraph": inner})
    doc = {
        "type": "banger-project",
        "name": draw(st.sampled_from(["x", "y"])),
        "design": {"name": "d", "nodes": nodes, "arcs": []},
    }
    if draw(st.booleans()):
        doc["machine"] = {"family": "hypercube", "n_procs": draw(st.sampled_from([2, 4]))}
    return doc


TENANT = "shared"


class StoreMachine(RuleBasedStateMachine):
    """Two instances and a fresh reader on one directory, one tenant."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-machine-")
        self.repos = [self._open() for _ in range(2)]
        # name -> every version, oldest first: [document, must it load?]
        self.model: dict[str, list[list]] = {}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _open(self) -> ProjectRepository:
        """What a process starting now would see."""
        return ProjectRepository(self.root)

    def _append(self, name: str, version: int, doc: dict) -> None:
        history = self.model.setdefault(name, [])
        assert version == len(history) + 1, "numbered from a stale history"
        history.append([doc, True])

    # ------------------------------------------------------------------ #
    @rule(who=st.integers(0, 1), name=st.sampled_from(NAMES), doc=project_docs())
    def put(self, who, name, doc):
        repo = self.repos[who]
        before = set(self._open().blobs.digests())
        stats = repo.blobs.stats
        puts, hits = stats.puts, stats.dedup_hits
        info = repo.put(TENANT, name, doc)
        stats = repo.blobs.stats
        written = (stats.puts - puts) - (stats.dedup_hits - hits)
        appeared = set(self._open().blobs.digests()) - before
        assert written == len(appeared), "a dedup hit on a blob that is not there"
        self._append(name, info["version"], doc)

    @rule(who=st.integers(0, 1), src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES))
    def fork(self, who, src, dst):
        if src in self.model:
            info = self.repos[who].fork(TENANT, src, TENANT, dst)
            self._append(dst, info["version"], self.model[src][-1][0])

    @rule(who=st.integers(0, 1), name=st.sampled_from(NAMES))
    def get(self, who, name):
        if name in self.model:
            assert self.repos[who].get(TENANT, name) == self.model[name][-1][0]

    @rule(who=st.integers(0, 1), max_bytes=st.sampled_from([None, 0, 400, 2000]))
    def gc(self, who, max_bytes):
        result = self.repos[who].gc(max_bytes)
        assert result["stored_bytes"] == self._held_bytes()
        if max_bytes is not None:
            for history in self.model.values():
                for version in history[:-1]:
                    version[1] = False

    @rule(who=st.integers(0, 1))
    def reopen(self, who):
        self.repos[who] = self._open()

    # ------------------------------------------------------------------ #
    def _held_bytes(self) -> int:
        objects = Path(self.root, "objects")
        return sum(p.stat().st_size for p in objects.rglob("*.json"))

    @invariant()
    def every_version_is_read_by_a_new_process(self):
        reader = self._open()
        assert reader.refs.projects(TENANT) == sorted(self.model)
        for name, history in self.model.items():
            log = reader.log(TENANT, name)
            assert [e["v"] for e in log] == list(range(1, len(history) + 1))
            for entry, (doc, loads) in zip(log, history):
                if loads:  # get verifies the fingerprint
                    assert entry["project"] == fingerprint(doc)
                    assert reader.get(TENANT, name, entry["v"]) == doc

    @invariant()
    def stored_bytes_is_what_the_store_holds(self):
        held = self._held_bytes()
        for repo in [*self.repos, self._open()]:
            assert repo.stats()["blob"]["stored_bytes"] == held


TestSharedDirectory = StoreMachine.TestCase
TestSharedDirectory.settings = settings(
    max_examples=30,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

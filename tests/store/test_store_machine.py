"""The store, broken on purpose: a stateful property over a shared directory.

Two :class:`ProjectRepository` instances open one directory, as a daemon and
a ``banger projects`` process do, and take turns at ``put`` / ``fork`` /
``get`` / ``gc(max_bytes)`` / reopening.  After every step a dict model is
checked against a *freshly opened* repository: every head the model knows is
readable and fingerprint-verified, a put wrote exactly the blobs the
directory lacked (so ``dedup_hits`` never counts a blob that is not there),
and every instance's ``stored_bytes`` is the bytes under ``objects/``.

Each instance appends only to its own tenant: ``RefStore.append`` numbers a
version from the history that instance holds, and it is ``gc`` alone that
reads ``refs/`` again.  The same machine runs once in memory mode, where one
instance is the whole store.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.graph.serialize import canonical_json
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


class StoreMachine(RuleBasedStateMachine):
    """Disk mode: two instances and a fresh reader on one directory."""

    on_disk = True

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-machine-") if self.on_disk else None
        self.repos = [self._open() for _ in range(2 if self.on_disk else 1)]
        self.model: dict[tuple[str, str], dict] = {}

    def teardown(self):
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)

    def _open(self) -> ProjectRepository:
        return ProjectRepository(self.root)

    def _reader(self) -> ProjectRepository:
        """What a process starting now would see."""
        return self._open() if self.on_disk else self.repos[0]

    def _who(self, who: int) -> tuple[ProjectRepository, str]:
        who %= len(self.repos)
        return self.repos[who], f"tenant{who}"

    # ------------------------------------------------------------------ #
    @rule(who=st.integers(0, 1), name=st.sampled_from(NAMES), doc=project_docs())
    def put(self, who, name, doc):
        repo, tenant = self._who(who)
        before = set(self._reader().blobs.digests())
        stats = repo.blobs.stats
        puts, hits = stats.puts, stats.dedup_hits
        repo.put(tenant, name, doc)
        stats = repo.blobs.stats
        written = (stats.puts - puts) - (stats.dedup_hits - hits)
        appeared = set(self._reader().blobs.digests()) - before
        assert written == len(appeared), "a dedup hit on a blob that is not there"
        self.model[tenant, name] = doc

    @rule(who=st.integers(0, 1), src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES))
    def fork(self, who, src, dst):
        repo, tenant = self._who(who)
        if (tenant, src) in self.model:
            repo.fork(tenant, src, tenant, dst)
            self.model[tenant, dst] = self.model[tenant, src]

    @rule(who=st.integers(0, 1), name=st.sampled_from(NAMES))
    def get(self, who, name):
        repo, tenant = self._who(who)
        if (tenant, name) in self.model:
            assert repo.get(tenant, name) == self.model[tenant, name]

    @rule(who=st.integers(0, 1), max_bytes=st.sampled_from([None, 0, 400, 2000]))
    def gc(self, who, max_bytes):
        repo, _ = self._who(who)
        result = repo.gc(max_bytes)
        assert result["stored_bytes"] == self._held_bytes()

    @precondition(lambda self: self.on_disk)
    @rule(who=st.integers(0, 1))
    def reopen(self, who):
        self.repos[who] = self._open()

    # ------------------------------------------------------------------ #
    def _held_bytes(self) -> int:
        if self.on_disk:
            objects = Path(self.root, "objects")
            return sum(p.stat().st_size for p in objects.rglob("*.json"))
        blobs = self.repos[0].blobs
        return sum(len(canonical_json(blobs.get(d))) for d in blobs.digests())

    @invariant()
    def every_head_is_readable_by_a_new_process(self):
        reader = self._reader()
        for (tenant, name), doc in self.model.items():
            assert reader.get(tenant, name) == doc  # get verifies the fingerprint

    @invariant()
    def stored_bytes_is_what_the_store_holds(self):
        held = self._held_bytes()
        for repo in [*self.repos, self._reader()]:
            assert repo.stats()["blob"]["stored_bytes"] == held


class MemoryMachine(StoreMachine):
    """Memory mode: one instance is the store, and its own reader."""

    on_disk = False


_SETTINGS = settings(
    max_examples=30,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestSharedDirectory = StoreMachine.TestCase
TestSharedDirectory.settings = _SETTINGS
TestMemoryStore = MemoryMachine.TestCase
TestMemoryStore.settings = _SETTINGS

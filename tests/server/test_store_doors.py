"""``banger projects`` and ``/projects`` are two doors onto one driver.

Both call the action functions of :mod:`repro.server.store_api`, so a bad
input is refused in the same words with the (exit code, status) pair of
``store_api.FAILURES``, a good one renders as text what the reply document
holds, and :class:`BangerClient` sends what those functions read.
"""

import functools
import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.server import store_api
from repro.server.store_api import store_request
from repro.store import ProjectRepository, TenantQuota
from repro.store.blobs import BlobStore
from repro.store.refs import RefStore

UNUSABLE = (2, 400)
NOT_FOUND = (1, 404)
QUOTA = (1, 403)


@pytest.fixture
def doors(tmp_path, monkeypatch, project_doc):
    """Two disk stores in the same state — ``alice/p`` at v1, v2 — one behind
    each door, and the files a command line names."""
    cli_root, http_root = tmp_path / "cli-store", tmp_path / "http-store"
    monkeypatch.setenv("BANGER_STORE_DIR", str(cli_root))
    for root in (cli_root, http_root):
        repo = ProjectRepository(str(root))
        repo.put("alice", "p", project_doc, message="first")
        repo.put("alice", "p", {**project_doc, "name": "renamed"}, message="second")
    files = {"{project}": project_doc, "{list}": [1, 2]}
    for token, doc in files.items():
        path = tmp_path / (token.strip("{}") + ".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        files[token] = str(path)
    return ProjectRepository(str(http_root)), files


def cli(argv, files, capsys):
    """``(exit code, stdout, the one error line or None)``."""
    capsys.readouterr()
    code = main(["projects"] + [files.get(word, word) for word in argv])
    out, err = capsys.readouterr()
    if not err:
        return code, out, None
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return code, out, line.removeprefix("error: ")


# (id, argv after `banger projects` — None where no command line can spell the
# input: every flag value arrives as text — , HTTP request, expected pair)
REFUSALS = [
    ("put: project not an object", ["put", "alice/p", "{list}"],
     ("POST", "/projects/alice/p", {"project": [1, 2]}), UNUSABLE),
    ("put: scenario not an object",
     ["put", "alice/p", "{project}", "--scenario", "{list}"],
     ("POST", "/projects/alice/p", {"project": "{project}", "scenario": [1, 2]}),
     UNUSABLE),
    ("put: bad tenant name", ["put", "al ice/p", "{project}"],
     ("POST", "/projects/al ice/p", {"project": "{project}"}), UNUSABLE),
    ("put: bad project name", ["put", "alice/.p", "{project}"],
     ("POST", "/projects/alice/.p", {"project": "{project}"}), UNUSABLE),
    ("fork: bad target tenant", ["fork", "alice/p", "b ob/q"],
     ("POST", "/projects/alice/p/fork", {"to_tenant": "b ob", "to_name": "q"}),
     UNUSABLE),
    ("fork: bad target name", ["fork", "alice/p", "bob/-q"],
     ("POST", "/projects/alice/p/fork", {"to_tenant": "bob", "to_name": "-q"}),
     UNUSABLE),
    ("put: message not a string", None,
     ("POST", "/projects/alice/p", {"project": "{project}", "message": 7}),
     UNUSABLE),
    ("fork: to_tenant not a string", None,
     ("POST", "/projects/alice/p/fork", {"to_tenant": 7, "to_name": "q"}),
     UNUSABLE),
    ("fork: message not a string", None,
     ("POST", "/projects/alice/p/fork", {"to_name": "q", "message": ["m"]}),
     UNUSABLE),
    ("diff: to_name not a string", None,
     ("POST", "/projects/alice/p/diff", {"to_name": 7}), UNUSABLE),
    ("diff: to_tenant not a string", None,
     ("POST", "/projects/alice/p/diff", {"to_tenant": 7}), UNUSABLE),
    ("gc: negative max_bytes", ["gc", "--max-bytes", "-5"],
     ("POST", "/projects/gc", {"max_bytes": -5}), UNUSABLE),
    ("gc: fractional max_bytes", ["gc", "--max-bytes", "2.5"],
     ("POST", "/projects/gc", {"max_bytes": "2.5"}), UNUSABLE),
    ("gc: max_bytes true", ["gc", "--max-bytes", "true"],
     ("POST", "/projects/gc", {"max_bytes": "true"}), UNUSABLE),
    ("get: bad version", ["get", "alice/p@x"],
     ("GET", "/projects/alice/p/v/x", {}), UNUSABLE),
    ("diff: bad version_a", ["diff", "alice/p@1.5", "alice/p@2"],
     ("GET", "/projects/alice/p/diff/1.5/2", {}), UNUSABLE),
    ("diff: bad version_b", ["diff", "alice/p@1", "alice/p@true"],
     ("GET", "/projects/alice/p/diff/1/true", {}), UNUSABLE),
    ("list: unknown tenant", ["list", "ghost"],
     ("GET", "/projects/ghost", {}), NOT_FOUND),
    ("get: unknown project", ["get", "alice/ghost"],
     ("GET", "/projects/alice/ghost", {}), NOT_FOUND),
    ("get: unknown version", ["get", "alice/p@9"],
     ("GET", "/projects/alice/p/v/9", {}), NOT_FOUND),
    ("put: quota exceeded", ["put", "alice/q", "{project}"],
     ("POST", "/projects/alice/q", {"project": "{project}"}), QUOTA),
]


@pytest.mark.parametrize(
    "argv, request_, expected", [row[1:] for row in REFUSALS],
    ids=[row[0] for row in REFUSALS],
)
def test_both_store_doors_refuse_alike(
    argv, request_, expected, doors, monkeypatch, capsys
):
    repo, files = doors
    if expected is QUOTA:  # `banger projects` has no quota flag; the daemon's is set
        repo.quota = TenantQuota(max_projects=1)
        monkeypatch.setattr(
            "repro.store.ProjectRepository",
            functools.partial(ProjectRepository, quota=repo.quota),
        )
    method, path, payload = request_
    if payload.get("project") == "{project}":
        payload = {**payload, "project": json.loads(open(files["{project}"]).read())}
    exit_code, status = expected
    before = sorted(repo.blobs.digests()), repo.refs.tenants()

    got, doc = store_request(repo, method, path, payload)
    assert (got, doc["type"]) == (status, "banger-error"), doc
    assert (status, doc["kind"], exit_code) in [row[1:] for row in store_api.FAILURES]
    if argv is None:
        # the CLI's call, handed what only a payload can carry
        action = getattr(store_api, path.rsplit("/", 1)[-1], store_api.put)
        with pytest.raises(ReproError) as err:
            action(repo, "alice", "p", payload)
        assert str(err.value) == doc["message"]
        assert store_api.failure(err.value) == (status, doc["kind"], exit_code)
    else:
        code, out, message = cli(argv, files, capsys)
        assert (code, out) == (exit_code, "")
        assert message == doc["message"]
    assert (sorted(repo.blobs.digests()), repo.refs.tenants()) == before


def test_cli_text_is_a_rendering_of_the_reply_document(doors, capsys):
    """Action by action: the same request through both doors, on stores in
    the same state, and every fact the CLI prints is one the document holds."""
    repo, files = doors
    project = json.loads(open(files["{project}"]).read())

    def both(argv, method, path, payload=None):
        code, out, message = cli(argv, files, capsys)
        status, doc = store_request(repo, method, path, payload or {})
        assert (code, message, status) == (0, None, 200), (out, message, doc)
        return out, doc

    out, doc = both(["put", "alice/p", "{project}", "-m", "third"],
                    "POST", "/projects/alice/p", {"project": project, "message": "third"})
    assert out == (f"alice/p@{doc['version']}  {doc['manifest'][:12]}  "
                   f"(project {doc['project'][:12]})\n")
    assert doc["version"] == 3

    out, doc = both(["list"], "GET", "/projects")
    s = doc["stats"]
    assert out == "".join(f"{t}  (1 project(s))\n" for t in doc["tenants"]) + (
        f"{s['projects']} project(s), {s['versions']} version(s), "
        f"{s['blobs']} blob(s), {s['blob']['stored_bytes']} byte(s) on disk\n"
    )
    out, doc = both(["list", "alice"], "GET", "/projects/alice")
    assert out == "".join(
        f"alice/{p['name']}@{p['version']}  {p['manifest'][:12]}  {p['message']}\n"
        for p in doc["projects"]
    )
    assert [p["message"] for p in doc["projects"]] == ["third"]

    out, doc = both(["get", "alice/p@2"], "GET", "/projects/alice/p/v/2")
    assert json.loads(out) == doc["document"] and doc["message"] == "second"
    out, doc = both(["get", "alice/p"], "GET", "/projects/alice/p")
    assert json.loads(out) == doc["document"] == project

    out, doc = both(["log", "alice/p"], "GET", "/projects/alice/p/log")
    assert out == "".join(
        f"v{e['v']}  manifest {e['manifest'][:12]}  project {e['project'][:12]}  "
        f"{e['message']}\n" for e in doc["versions"]
    )
    assert [e["message"] for e in doc["versions"]] == ["first", "second", "third"]

    out, doc = both(["diff", "alice/p@1", "alice/p@2", "--json"],
                    "GET", "/projects/alice/p/diff/1/2")
    assert json.loads(out) == doc and doc["identical"] is False
    out, doc = both(["diff", "alice/p@1", "alice/p@3"],
                    "POST", "/projects/alice/p/diff", {"version_a": 1, "version_b": 3})
    assert out == "identical (same manifest)\n" and doc["identical"] is True

    out, doc = both(["fork", "alice/p@1", "bob/q", "-m", "mine"],
                    "POST", "/projects/alice/p/fork",
                    {"to_tenant": "bob", "to_name": "q", "version": 1, "message": "mine"})
    assert out == f"bob/q@{doc['version']}  {doc['manifest'][:12]}  (zero-copy)\n"
    assert (doc["tenant"], doc["name"], doc["forked_from"]["v"]) == ("bob", "q", 1)

    out, doc = both(["gc", "--max-bytes", "1000000000"],
                    "POST", "/projects/gc", {"max_bytes": 10**9})
    assert out == (f"deleted {doc['deleted']} blob(s); {doc['live']} live, "
                   f"{doc['stored_bytes']} byte(s) on disk\n")


def test_client_methods_return_the_action_documents(
    tmp_path, daemon_factory, project_doc
):
    """``BangerClient.project_*`` against a live daemon answers what
    ``store_request`` answers on a repository in the same state."""
    client = daemon_factory(workers=0, seed_corpus=False).client
    repo = ProjectRepository(tmp_path)
    renamed = {**project_doc, "name": "renamed"}
    scenario = {"name": "quiet", "events": []}

    def same(answer, method, path, payload=None):
        assert (200, answer) == store_request(repo, method, path, payload or {})

    same(client.project_put("alice", "p", project_doc, message="first"),
         "POST", "/projects/alice/p", {"project": project_doc, "message": "first"})
    same(client.project_put("alice", "p", renamed, scenario=scenario),
         "POST", "/projects/alice/p", {"project": renamed, "scenario": scenario})
    same(client.project_get("alice", "p"), "GET", "/projects/alice/p")
    same(client.project_get("alice", "p", version=1), "GET", "/projects/alice/p/v/1")
    same(client.project_log("alice", "p"), "GET", "/projects/alice/p/log")
    same(client.project_diff("alice", "p", version_a=1, version_b=2),
         "GET", "/projects/alice/p/diff/1/2")
    same(client.project_fork("alice", "p", "bob", "q", version=1),
         "POST", "/projects/alice/p/fork",
         {"to_tenant": "bob", "to_name": "q", "version": 1})
    same(client.project_diff("alice", "p", to_tenant="bob", to_name="q"),
         "POST", "/projects/alice/p/diff", {"to_tenant": "bob", "to_name": "q"})
    same(client.projects("alice"), "GET", "/projects/alice")
    same(client.store_gc(), "POST", "/projects/gc")
    same(client.store_gc(max_bytes=10**9), "POST", "/projects/gc", {"max_bytes": 10**9})
    same(client.projects(), "GET", "/projects")


# --------------------------------------------------------------------- #
# a number is a number: what int() would coerce changes nothing
# --------------------------------------------------------------------- #
BAD_MAX_BYTES = [True, -5, 2.5, "7", "1e3"]


def test_a_refused_cap_or_version_leaves_the_store_as_it_was(
    tmp_path, monkeypatch, project_doc, capsys
):
    """``{"max_bytes": true}`` was a 1-byte cap that trimmed every non-head
    version, ``{"version": true}`` was version 1."""
    root = tmp_path / "store"
    monkeypatch.setenv("BANGER_STORE_DIR", str(root))
    repo = ProjectRepository(str(root))
    for n in range(3):
        repo.put("alice", "p", {**project_doc, "name": f"v{n}"}, message=f"put {n}")

    def state():
        fresh = ProjectRepository(str(root))
        return (sorted(fresh.blobs.digests()), fresh.log("alice", "p"),
                fresh.refs.tenants(), fresh.refs.projects("alice"))

    before = state()
    assert all(entry["project"] for entry in before[1])
    for value in BAD_MAX_BYTES:
        status, doc = store_request(repo, "POST", "/projects/gc", {"max_bytes": value})
        assert (status, doc["message"]) == (
            400, f"max_bytes must be a non-negative whole number, got {value!r}"
        )
        assert state() == before
    for text in ("true", "-5", "2.5"):
        code, out, message = cli(["gc", "--max-bytes", text], {}, capsys)
        assert (code, out) == (2, "")
        assert message.startswith("max_bytes must be a non-negative whole number, got ")
        assert state() == before

    for path, field in (("/fork", "version"), ("/diff", "version_a"),
                        ("/diff", "version_b")):
        for value in (True, "1", 1.5):
            payload = {"to_name": "q", field: value}
            status, doc = store_request(repo, "POST", "/projects/alice/p" + path, payload)
            assert (status, doc["message"]) == (
                400, f"{field} must be a whole number, got {value!r}"
            )
            assert state() == before


def test_a_record_resolves_its_ref_and_reads_its_manifest_once(
    tmp_path, monkeypatch, project_doc
):
    """Per ``GET /projects/<t>/<n>`` on a disk store (each was 2)."""
    repo = ProjectRepository(str(tmp_path))
    manifest = repo.put("alice", "p", project_doc)["manifest"]
    calls = {"resolve": 0, "manifest reads": 0}
    resolve, get = RefStore.resolve, BlobStore.get

    def counting_resolve(self, *args):
        calls["resolve"] += 1
        return resolve(self, *args)

    def counting_get(self, digest):
        calls["manifest reads"] += digest == manifest
        return get(self, digest)

    monkeypatch.setattr(RefStore, "resolve", counting_resolve)
    monkeypatch.setattr(BlobStore, "get", counting_get)
    status, doc = store_request(repo, "GET", "/projects/alice/p", {})
    assert (status, doc["document"]) == (200, project_doc)
    assert calls == {"resolve": 1, "manifest reads": 1}

"""docs/projects.md stays in sync with the store it describes."""

import dataclasses
import pathlib
import re

from repro.client import BangerClient
from repro.store import ProjectRepository, TenantQuota
from repro.store.blobs import BlobStats
from repro.store.corpus import CORPUS_TENANT, corpus_names

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "projects.md"
TEXT = DOCS.read_text(encoding="utf-8")


def public_methods(cls) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    }


def test_every_repository_method_is_documented():
    missing = {
        name
        for name in public_methods(ProjectRepository)
        if f"`{name}(" not in TEXT
    }
    assert not missing, (
        f"ProjectRepository methods missing from docs/projects.md: {sorted(missing)}"
    )


def test_every_quota_field_is_documented():
    for field in dataclasses.fields(TenantQuota):
        assert f"{field.name}" in TEXT, (
            f"quota field {field.name} missing from docs/projects.md"
        )


def test_every_blob_counter_is_documented():
    stats = BlobStats().as_dict()
    for key in stats:
        assert f"`{key}`" in TEXT, (
            f"blob counter {key} missing from docs/projects.md"
        )


def test_every_client_store_method_is_documented():
    store_methods = {
        name
        for name in public_methods(BangerClient)
        if name.startswith(("project", "store_"))
    }
    assert store_methods, "client lost its store surface?"
    for name in store_methods:
        assert f"`{name}(" in TEXT, (
            f"client method {name} missing from docs/projects.md"
        )


def test_every_cli_action_is_documented():
    from repro.cli import build_parser

    parser = build_parser()
    for action in ("list", "put", "get", "log", "diff", "fork", "gc", "seed"):
        assert f"projects {action}" in TEXT, (
            f"CLI action `projects {action}` missing from docs/projects.md"
        )
    # and the documented command line really parses
    args = parser.parse_args(["projects", "log", "alice/mysort"])
    assert args.fn is not None


def test_documented_corpus_size_matches_the_code():
    assert CORPUS_TENANT == "corpus" and "`corpus`" in TEXT
    n = len(corpus_names())
    assert str(n) in TEXT, f"doc no longer matches the {n}-project corpus"


def test_store_uris_are_documented():
    assert "store://" in TEXT
    assert "corpus://" in TEXT
    assert "BANGER_STORE_DIR" in TEXT
    assert ".banger-store" in TEXT


def test_referenced_files_exist():
    for rel in re.findall(
        r"`((?:src|tests|docs|benchmarks|examples|\.github)"
        r"/[A-Za-z0-9_./-]+\.(?:py|md|yml|json))`",
        TEXT,
    ):
        assert (ROOT / rel).exists(), f"docs/projects.md references missing {rel}"


def test_http_routes_and_status_codes_are_documented():
    for token in ("GET /projects", "POST /projects", "Retry-After",
                  "quota-exceeded", "not-found", "bad-request", "403"):
        assert token in TEXT, f"{token} missing from docs/projects.md"


def test_every_store_error_class_is_documented():
    import repro.errors as errors

    for name, cls in vars(errors).items():
        if isinstance(cls, type) and issubclass(cls, errors.StoreError):
            assert f"`{name}`" in TEXT, f"{name} missing from docs/projects.md"


def test_the_shared_directory_contract_is_documented():
    import inspect

    from repro.store import BlobStore, RefStore

    # tests/store/test_shared_directory.py and tests/store/test_store_machine.py
    assert "the directory is its only record" in TEXT
    assert "Refs are read from disk on every query" in TEXT
    for tier in (BlobStore, RefStore, ProjectRepository):
        root = inspect.signature(tier).parameters["root"]
        assert root.default is inspect.Parameter.empty, f"{tier.__name__} root"
        assert f"`{tier.__name__}`" in TEXT
    assert "two appends at one instant" in TEXT  # open, and said so
    assert "put-versus-gc race" in TEXT  # open, and said so


#: store_api action -> (its `banger projects` command, its client method)
DOORS = {
    "record": ("get", "project_get"),
    "diff": ("diff", "project_diff"),
    "put": ("put", "project_put"),
    "fork": ("fork", "project_fork"),
    "gc": ("gc", "store_gc"),
}


def _fields_read_by(action: str, root) -> set[str]:
    """Every option the action function reads, found by handing it a mapping
    that remembers what it was asked for (and holds what the action requires)."""
    from repro.server import store_api
    from repro.store.corpus import example_project

    asked: set[str] = set()

    class Recording(dict):
        def get(self, key, default=None):
            asked.add(key)
            return super().get(key, default)

    repo = ProjectRepository(root)
    doc = example_project("lu_decomposition").to_dict()
    repo.put("alice", "p", doc)
    raw = Recording({"put": {"project": doc}, "fork": {"to_name": "q"}}.get(action, {}))
    fn = getattr(store_api, action)
    fn(repo, raw) if action == "gc" else fn(repo, "alice", "p", raw)
    return asked


def test_every_store_option_has_a_row_a_help_entry_and_a_client_parameter(
    tmp_path, capsys
):
    """docs/projects.md has one table per action that reads options; its rows
    are exactly the fields the action function reads, each CLI spelling is one
    ``banger projects <command> --help`` lists, and each field is a parameter
    of the ``BangerClient`` method — which sends it under that name."""
    import inspect

    import pytest

    from repro.cli import build_parser
    from repro.server import store_api

    for action, (command, method) in DOORS.items():
        section = TEXT.split(f"#### `{action}`\n", 1)[1].split("\n### ", 1)[0]
        section = section.split("\n#### ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)`[^|]*\| `(\w+)` \|", section, re.M)
        read = _fields_read_by(action, tmp_path / action)
        assert {field for _, field in rows} == read, action
        with pytest.raises(SystemExit):
            build_parser().parse_args(["projects", command, "--help"])
        help_text = capsys.readouterr().out
        parameters = inspect.signature(getattr(BangerClient, method)).parameters
        for spelling, field in rows:
            assert spelling.split(",")[0] in help_text, f"{command}: no {spelling}"
            assert field in parameters, f"BangerClient.{method} has no {field}"
    # the actions without a table read no option at all
    takes_options = {
        name for name in ("list_tenants", "list_projects", "record", "log",
                          "diff", "put", "fork", "gc")
        if "raw" in inspect.signature(getattr(store_api, name)).parameters
    }
    assert takes_options == set(DOORS)


def test_the_failure_table_is_the_codes_table():
    """Here and in docs/server.md."""
    from repro.server.store_api import FAILURES

    actual = {
        (frozenset(c.__name__ for c in (classes if isinstance(classes, tuple)
                                        else (classes,))), status, kind, code)
        for classes, status, kind, code in FAILURES
    }
    server_md = (ROOT / "docs" / "server.md").read_text(encoding="utf-8")
    for text, heading in ((TEXT, "### Failures: one table, both doors\n"),
                          (server_md, "### Store failures: one table, both doors\n")):
        section = text.split(heading, 1)[1].split("\n#", 1)[0]
        documented = {
            (frozenset(re.findall(r"`(\w+)`", classes)), int(status), kind, int(code))
            for classes, status, kind, code in re.findall(
                r"^\| [^|]+ \| ([^|]+) \| `(\d{3})` \| `([a-z-]+)` \| (\d) \|$",
                section, re.M,
            )
        }
        assert documented == actual


def test_every_documented_route_routes_to_its_action(tmp_path):
    """The action table's HTTP column, driven: each spelling answers 200 with
    the reply ``type`` its row names (four of eight rows once named routes and
    fields the code never read)."""
    from repro.server.store_api import store_request
    from repro.store.corpus import example_project

    repo = ProjectRepository(tmp_path)
    doc = example_project("lu_decomposition").to_dict()
    repo.put("alice", "p", doc)
    payloads = {"/projects/alice/p": {"project": doc},
                "/projects/alice/p/fork": {"to_name": "q"}}
    table = TEXT.split("| action | `banger projects …` |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \| [^|]+ \| `([a-z-]+)`", table, re.M)
    assert len(rows) == 8
    for action, http, reply_type in rows:
        for method, spelled in re.findall(r"`(GET|POST) ([^`]+)`", http):
            # a bracketed tail is optional: drive the route with and without it
            for path in {re.sub(r"\[.*\]", "", spelled), re.sub(r"[\[\]]", "", spelled)}:
                for token, value in (("<tenant>", "alice"), ("<name>", "p"),
                                     ("<N>", "1"), ("<a>", "1"), ("<b>", "1")):
                    path = path.replace(token, value)
                status, reply = store_request(repo, method, path, payloads.get(path, {}))
                assert (status, reply["type"]) == (200, reply_type), (action, path, reply)

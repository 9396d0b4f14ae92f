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
    from repro.store import RefStore

    assert "memory or disk, never both" in TEXT  # tests/store/test_shared_directory.py
    assert "`RefStore.reload`" in TEXT and callable(RefStore.reload)
    assert "put-versus-gc race" in TEXT  # open, and said so

"""docs/codegen.md stays in sync with the codegen surface: every backend,
IR field, public entry point, and deprecated alias it names must exist,
and everything that exists must be named."""

import dataclasses
import pathlib
import re

from repro.codegen import list_backends
from repro.codegen.ir import IR_VERSION, LoweredProgram

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "codegen.md"
TEXT = DOCS.read_text(encoding="utf-8")


def test_every_backend_is_documented():
    for entry in list_backends():
        assert f"`{entry['name']}`" in TEXT, entry["name"]


def test_backend_ability_table_matches_registry():
    """The yes/no columns of the target table match the registry flags."""
    for entry in list_backends():
        row = re.search(
            rf"^\| `{entry['name']}` \| (\w+) \| (\w+) \|", TEXT, re.MULTILINE
        )
        assert row, f"no ability-table row for {entry['name']}"
        assert (row.group(1) == "yes") == entry["emits_source"], entry["name"]
        assert (row.group(2) == "yes") == entry["runnable"], entry["name"]


def test_every_ir_field_is_documented():
    for field in dataclasses.fields(LoweredProgram):
        assert f"`{field.name}`" in TEXT, field.name


def test_ir_version_is_quoted():
    assert f"`{IR_VERSION}`" in TEXT


def test_public_entry_points_are_documented():
    for name in ("generate(", "run(", "as_lowered(", "list_backends("):
        assert f"`{name}" in TEXT, name


def test_referenced_files_exist():
    for path in re.findall(r"`((?:src|tests|benchmarks|docs)/[\w./]+)`", TEXT):
        assert (ROOT / path).exists(), path

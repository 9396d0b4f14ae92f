"""docs/analysis.md stays in sync with the analyzers it describes."""

import pathlib
import re

from repro.lint.rules import RULES

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "analysis.md"
TEXT = DOCS.read_text(encoding="utf-8")


def test_referenced_files_exist():
    for rel in re.findall(
        r"`((?:src|tests|docs|benchmarks|\.github)/[A-Za-z0-9_./-]+"
        r"\.(?:py|md|yml|json))`",
        TEXT,
    ):
        assert (ROOT / rel).exists(), f"docs/analysis.md references missing {rel}"


def test_every_new_rule_family_member_is_documented():
    for rule_id, rule in RULES.items():
        if rule_id.startswith(("PITS10", "CG5")):
            assert f"`{rule_id}`" in TEXT, f"{rule_id} missing from docs/analysis.md"
            assert f"({rule.severity.value})" in TEXT


def test_no_ghost_rules_documented():
    for rule_id in set(re.findall(r"`(PITS1\d\d|CG5\d\d)`", TEXT)):
        assert rule_id in RULES, f"docs/analysis.md documents unknown {rule_id}"


def test_documented_cli_flags_exist():
    from repro.cli import build_parser

    for flag in ("--concurrency", "--scheduler", "--baseline", "--suppress"):
        assert flag in TEXT, f"{flag} missing from docs/analysis.md"
    parser = build_parser()
    args = parser.parse_args(
        ["lint", "p.json", "--concurrency", "--scheduler", "mh",
         "--baseline", "old.sarif", "--format", "sarif"]
    )
    assert args.fn is not None


def test_documented_payload_fields_exist():
    from repro.env.project import BangerProject
    from repro.server.ops import coalesce_key

    project = BangerProject.load(ROOT / "examples" / "lu_decomposition.json").to_dict()
    plain = coalesce_key("lint", {"project": project})
    values = {"concurrency": True, "scheduler": "etf", "suppress": ["PITS101"],
              "fail_on": "warning"}
    for field, value in values.items():
        # every documented option is part of the request's identity
        assert coalesce_key("lint", {"project": project, field: value}) != plain
        assert f"`{field}`" in TEXT


def test_documented_suppression_syntax_works():
    from repro.calc.analyze import analyze

    assert "# lint: disable=" in TEXT and "# lint: disable-file=" in TEXT
    src = "output y\nlocal d\nd := 0\ny := 1 / d  # lint: disable=PITS101"
    assert "PITS101" not in [d.rule for d in analyze(src)]


def test_documented_table_bound_is_real():
    from repro.facts import SHARED_ENTRIES, shared_cache

    assert "`SHARED_ENTRIES`" in TEXT and f"**{SHARED_ENTRIES}**" in TEXT
    assert shared_cache().max_entries == SHARED_ENTRIES

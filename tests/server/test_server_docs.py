"""docs/server.md stays in sync with the daemon it describes."""

import pathlib
import re

from repro.server.app import DEBUG_ROUTES, ROUTES
from repro.server.metrics import DISPOSITIONS, LATENCY_WINDOW, ServerMetrics

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "server.md"
TEXT = DOCS.read_text(encoding="utf-8")


def test_every_endpoint_is_documented():
    for path in ROUTES:
        assert f"POST {path}" in TEXT, f"{path} missing from docs/server.md"
    for path in DEBUG_ROUTES:
        assert f"POST {path}" in TEXT, f"{path} missing from docs/server.md"
    for path in ("/healthz", "/metrics"):
        assert f"GET {path}" in TEXT


def test_every_disposition_is_documented():
    for name in DISPOSITIONS:
        assert f"`{name}`" in TEXT, f"disposition {name} missing from docs"


def test_every_metrics_counter_is_documented():
    metrics = ServerMetrics().as_dict()
    for key in metrics:
        assert f"`{key}`" in TEXT, f"metrics field {key} missing from docs"
    # the work counters folded in from workers
    from repro.server.ops import execute

    work = execute("sleep", {"seconds": 0})["counters"]
    for key in work:
        assert f"`{key}`" in TEXT, f"work counter {key} missing from docs"


def test_every_ledger_counter_is_in_the_work_list():
    """docs/server.md's ``server.work`` entry lists every name a reply's
    ``counters`` carries — each ledger counter among them, each a
    ``ServiceStats`` field — and the ``/metrics`` document has no second
    copy under ``service``."""
    import dataclasses

    import repro.sched
    import repro.sim  # noqa: F401 — every module that declares counters
    from repro.lru import LEDGER
    from repro.sched.service import ServiceStats
    from repro.server.ops import execute

    entry = TEXT.split("* **`server`.`work`**", 1)[1].split("\n* **", 1)[0]
    fields = {f.name for f in dataclasses.fields(ServiceStats)}
    for name in LEDGER.snapshot():
        assert f"`{name}`" in entry, f"ledger counter {name} missing from work list"
        assert name in fields, f"ledger counter {name} is no ServiceStats field"
    for name in execute("sleep", {"seconds": 0})["counters"]:
        assert f"`{name}`" in entry, f"work counter {name} missing from work list"
    assert "* **`service`**" not in TEXT


def test_documented_status_codes_are_the_emitted_ones():
    from repro.server.protocol import REASONS

    documented = set(re.findall(r"`(\d{3})`", TEXT))
    for code in (200, 400, 404, 405, 500, 503, 504):
        assert str(code) in documented, f"status {code} missing from docs"
        assert code in REASONS


def test_documented_error_kinds_are_emitted_by_the_code():
    source = "".join(
        (ROOT / "src" / "repro" / "server" / f).read_text(encoding="utf-8")
        for f in ("app.py", "ops.py")
    )
    for kind in ("bad-request", "not-found", "method-not-allowed",
                 "worker-crash", "internal", "overloaded", "timeout"):
        assert f"`{kind}`" in TEXT, f"error kind {kind} missing from docs"
        assert f'"{kind}"' in source, f"docs document unemitted kind {kind}"


def test_documented_cli_flags_exist():
    from repro.cli import build_parser

    for flag in ("--port", "--workers", "--queue-limit", "--timeout",
                 "--cache-entries", "--debug", "--access-log",
                 "--no-access-log"):
        assert flag in TEXT, f"{flag} missing from docs/server.md"
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--queue-limit", "8",
         "--timeout", "5", "--cache-entries", "16", "--debug",
         "--no-access-log"]
    )
    assert args.fn is not None


def test_documented_numbers_match_the_code():
    assert str(LATENCY_WINDOW) in TEXT
    from repro.server.app import BangerDaemon

    daemon = BangerDaemon.__init__.__defaults__
    assert "min(4, cpus)" in TEXT  # the documented default worker count


def test_referenced_files_exist():
    for rel in re.findall(
        r"`((?:src|tests|docs|benchmarks|\.github)/[A-Za-z0-9_./-]+"
        r"\.(?:py|md|yml|json))`",
        TEXT,
    ):
        assert (ROOT / rel).exists(), f"docs/server.md references missing {rel}"


def test_access_log_fields_are_documented():
    # the fields the daemon actually writes per request
    for field in ("ts", "client", "method", "path", "status", "ms",
                  "disposition", "bytes_in"):
        assert f"`{field}`" in TEXT, f"access-log field {field} missing"


def test_store_failures_answered_500_are_documented():
    from repro.errors import StoreCorruption, StoreWriteError
    from repro.server.store_api import store_request

    row = next(line for line in TEXT.splitlines() if line.startswith("| `500`"))
    for cls in (StoreCorruption, StoreWriteError):
        assert f"`{cls.__name__}`" in row

        class Refusing:
            def put(self, *args, **kwargs):
                raise cls("refused")

        status, body = store_request(
            Refusing(), "POST", "/projects/t/p", {"project": {}}
        )
        assert (status, body["kind"]) == (500, "internal")


def test_reactive_documents_that_it_needs_a_scenario():
    assert "requires `scenario`" in TEXT


def _options_read_by(op: str) -> set[str]:
    """Every field ``<op>_options`` reads, found by handing it a mapping that
    holds nothing and remembers what it was asked for."""
    from repro.server import ops

    class Recording(dict):
        def get(self, key, default=None):
            self[key] = None
            return default

    raw = Recording()
    # simulate's validator also takes the project machine (none here)
    getattr(ops, f"{op}_options")(*((raw, None) if op == "simulate" else (raw,)))
    return set(raw)


def test_every_option_is_documented_under_both_spellings(capsys):
    """docs/server.md has one table per op; its rows are exactly the fields
    the validator reads, each flag is one ``banger <op> --help`` lists, and
    the flag stores under the field's name — which is how the CLI hands the
    validator its namespace unrenamed.  repro.cli's docstring names both."""
    import pytest

    import repro.cli
    from repro.server.ops import DEBUG_OPS, OPS

    for op in sorted(set(OPS) - DEBUG_OPS):
        section = TEXT.split(f"#### `{op}`\n", 1)[1].split("\n#### ", 1)[0]
        rows = re.findall(r"^\| (?:`(--[a-z-]+)[^`]*`|—) \| `(\w+)` \|", section, re.M)
        assert {field for _, field in rows} == _options_read_by(op), op
        with pytest.raises(SystemExit):
            repro.cli.build_parser().parse_args([op, "--help"])
        help_text = capsys.readouterr().out
        argv = [op] if op == "conform" else [op, "project.json"]
        namespace = vars(repro.cli.build_parser().parse_args(argv))
        for flag, field in rows:
            assert field in repro.cli.__doc__, f"{op}: {field} not in cli docstring"
            if flag:
                assert flag in help_text, f"banger {op} has no {flag}"
                assert field in namespace, f"{op}: {flag} does not store {field}"
                assert f"{flag} " in repro.cli.__doc__

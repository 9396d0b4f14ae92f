"""docs/performance.md stays in sync with the kernel it describes."""

import ast
import dataclasses
import functools
import pathlib
import re

from repro.sched import ServiceStats
from repro.sched.core import kernel_counters

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "performance.md"
TEXT = DOCS.read_text(encoding="utf-8")
#: Every page a reader is sent to: the docs, the README and the design table.
PAGES = [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md", ROOT / "DESIGN.md"]


def ledger_declarations() -> dict[str, str]:
    """Every ``LEDGER.declare(name=...)`` under ``src/repro``: name -> module.
    Read from the source, so no module has to be imported to be counted."""
    declared: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "declare"
                and getattr(node.func.value, "id", None) == "LEDGER"
            ):
                for kw in node.keywords:
                    assert kw.arg not in declared, f"{kw.arg} declared twice"
                    declared[kw.arg] = path.name
    return declared


def test_every_kernel_counter_is_documented():
    counters = kernel_counters()
    for name in counters:
        assert f"`{name}`" in TEXT, f"counter {name} missing from docs/performance.md"
    # and the service really forwards each one in its stats snapshot
    stats_fields = {f.name for f in dataclasses.fields(ServiceStats)}
    assert set(counters) <= stats_fields
    # the names the frozen bench/runner.py reads off the one snapshot
    assert {"route_cache_hits", "compiled_hits", "compiled_misses"} <= set(counters)


def test_service_stats_process_wide_fields_are_the_ledger():
    """ServiceStats's fields from ``kernel_builds`` on are exactly the names
    the modules declare in the process-wide ledger, no more, no fewer."""
    import repro.sched
    import repro.server.memo
    import repro.sim  # noqa: F401 — every declaring module, imported
    from repro.lru import LEDGER

    names = [f.name for f in dataclasses.fields(ServiceStats)]
    process_wide = set(names[names.index("kernel_builds"):])
    assert process_wide == set(ledger_declarations()) == set(LEDGER.snapshot())


def test_documented_kernel_names_exist():
    """Every kernel API name the doc leans on is importable."""
    import repro.sched.core as core
    from repro.sched.mh import LinkTimeline  # noqa: F401 — named in the doc
    from repro.sched.schedule import Schedule

    for name in (
        "SchedKernel", "ReadyHeap", "ReadySet", "KernelState",
        "StartTable", "run_start_table", "run_priority_list",
    ):
        assert f"`{name}`" in TEXT
        assert hasattr(core, name)
    for name in ("data_ready_row", "slot", "best_processor", "place"):
        assert f"`{name}`" in TEXT and hasattr(core.KernelState, name)
    assert "`StartTable.place`" in TEXT and hasattr(core.StartTable, "place")
    assert "hop_costs" in TEXT and hasattr(core.SchedKernel, "hop_costs")
    assert "`LinkTimeline`" in TEXT or "LinkTimeline" in TEXT
    assert "insertion_slot" in TEXT and hasattr(Schedule, "insertion_slot")


def test_referenced_files_exist():
    for rel in re.findall(r"`((?:benchmarks|tests|docs)/[a-z_./]+\.(?:py|md|json))`", TEXT):
        assert (ROOT / rel).exists(), f"docs/performance.md references missing {rel}"
    assert (ROOT / "src" / "repro" / "sched" / "_reference.py").exists()


def test_equivalence_suite_is_where_the_doc_says():
    assert "tests/sched/test_core_equivalence.py" in TEXT
    assert (ROOT / "tests" / "sched" / "test_core_equivalence.py").exists()


# --------------------------------------------------------------------- #
# drift: every name the doc leans on is defined, every cited title exists
# --------------------------------------------------------------------- #
#: Backticked names from outside ``src/repro`` and ``bench/`` a doc may use.
STDLIB_NAMES = frozenset({"loop.call_soon_threadsafe"})

#: A backticked dotted name, with an optional call after it.
NAME = re.compile(
    r"`([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\([^`]*\))?`"
)
CITATION = re.compile(r'docs/performance\.md`{0,2},?\s+"([^"]+)"')


@functools.cache
def _source_words() -> frozenset[str]:
    words: set[str] = set()
    for base in (ROOT / "src" / "repro", ROOT / "bench"):
        for path in base.rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    return frozenset(words)


def undefined_names(text: str) -> set[str]:
    """Backticked identifiers in ``text`` holding a ``_`` or a ``.`` of
    which some part is no word under ``src/repro`` or ``bench/``.  A part
    may drop the leading ``_`` of a private name; file names are left to
    the file checks."""
    words = _source_words()
    missing = set()
    for match in NAME.finditer(text):
        name = match.group(1)
        if ("_" not in name and "." not in name) or name in STDLIB_NAMES:
            continue
        if name.rsplit(".", 1)[-1] in ("py", "md", "json", "yml"):
            continue
        if any(part not in words and "_" + part not in words
               for part in name.split(".")):
            missing.add(name)
    return missing


def test_every_backticked_name_is_defined():
    """On every page, not only this one: a deleted name leaves no doc."""
    missing = {}
    for page in PAGES:
        names = undefined_names(page.read_text(encoding="utf-8"))
        if names:
            missing[page.relative_to(ROOT).as_posix()] = names
    assert missing == {}


def test_the_name_check_sees_a_deleted_name():
    assert undefined_names("`_parse_and_key` and `workers.on_loop`") == {
        "_parse_and_key", "workers.on_loop",
    }
    assert undefined_names("`_next_hop`, `next_hop` and `ops.coalesce_key`") == set()


def test_every_cited_heading_exists():
    """``docs/performance.md``, "<title>" anywhere under ``src/``, ``docs/``
    or in ``EXPERIMENTS.md`` names a heading of the page (a heading's
    trailing parenthesis may be left out)."""
    headings = {
        line.lstrip("#").strip() for line in TEXT.splitlines() if line.startswith("#")
    }
    titles = headings | {heading.split(" (")[0] for heading in headings}
    cited = 0
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "docs").rglob("*.md"),
                 ROOT / "EXPERIMENTS.md"]:
        for match in CITATION.finditer(path.read_text(encoding="utf-8")):
            title = " ".join(match.group(1).split())
            assert title in titles, f"{path.relative_to(ROOT)} cites missing {title!r}"
            cited += 1
    assert cited >= 5

"""docs/api.md stays in sync with the public scheduling surface."""

import dataclasses
import pathlib
import re

from repro.env import BangerProject
from repro.sched import ScheduleRequest, ScheduleService, ServiceStats

DOCS = pathlib.Path(__file__).parent.parent.parent / "docs" / "api.md"
TEXT = DOCS.read_text(encoding="utf-8")

#: internal names that are deliberately undocumented
PRIVATE_OK = {"from_dict", "to_dict"}  # documented jointly, checked below


def public_methods(cls) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    }


def test_every_project_method_is_documented():
    missing = {
        name for name in public_methods(BangerProject) if f"`{name}(" not in TEXT
    }
    assert not missing, f"BangerProject methods missing from docs/api.md: {sorted(missing)}"


def test_every_request_field_is_documented():
    for field in dataclasses.fields(ScheduleRequest):
        assert f"`{field.name}`" in TEXT, field.name


def test_every_stats_counter_is_documented():
    for field in dataclasses.fields(ServiceStats):
        assert f"`{field.name}`" in TEXT, field.name


def test_service_methods_documented():
    for name in public_methods(ScheduleService):
        assert re.search(rf"`{name}\(", TEXT), name


def test_no_ghost_methods():
    """Every `name(...)` the doc claims on BangerProject really exists."""
    documented = set(re.findall(r"`([a-z_]+)\(", TEXT))
    known = (
        public_methods(BangerProject)
        | public_methods(ScheduleService)
        | {"as_request", "scheduler_cache_key", "content_hash", "set_machine"}
        | {"BangerProject", "ScheduleService"}
    )
    ghosts = {
        name
        for name in documented
        if name not in known and not hasattr(BangerProject, name)
    }
    assert not ghosts, f"docs/api.md documents nonexistent names: {sorted(ghosts)}"

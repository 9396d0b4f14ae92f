"""Every ``repro.server`` module imports first, in a fresh interpreter.

``repro.server.memo`` builds projects (``repro.env``), and the shell in
``repro.env`` drives ``repro.server.ops``; a package import that pulled the
shell in with the project made the two packages import each other, and
``import repro.server.memo`` failed in a fresh interpreter.  Structural:
one subprocess per module, no wall-time assert.
"""

from __future__ import annotations

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro.server

SRC = pathlib.Path(__file__).parent.parent.parent / "src"
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(repro.server.__path__, "repro.server.")
)


def test_the_server_package_is_all_here():
    assert {"repro.server.memo", "repro.server.ops", "repro.server.workers",
            "repro.server.app"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_the_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

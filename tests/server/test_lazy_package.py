"""``import repro.cli`` does not pay for the daemon: ``repro.server`` resolves
its public names on first use (PEP 562).  Structural, no wall-time assert."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent.parent / "src"

PROBE = """
import sys
import repro.cli

daemon = ("repro.server.app", "repro.server.workers", "repro.server.metrics")
loaded = [name for name in daemon if name in sys.modules]
assert not loaded, f"import repro.cli loaded {loaded}"
assert "repro.server.ops" in sys.modules  # what the pipeline commands drive

# `banger serve` imports the daemon before it looks at its flags
assert repro.cli.main(["serve", "--workers", "-1"]) == 2
missing = [name for name in daemon if name not in sys.modules]
assert not missing, f"banger serve did not load {missing}"
"""


def test_the_cli_imports_the_daemon_only_to_serve():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "--workers must be >= 0" in done.stderr


def test_the_package_exports_its_eight_names():
    import repro.server
    from repro.server import BangerDaemon, WorkerPool, ops  # noqa: F401

    assert repro.server.__all__ == [
        "BangerDaemon", "OPS", "ServerMetrics", "WorkerCrash", "WorkerPool",
        "WorkerTimeout", "execute", "run_daemon",
    ]
    for name in repro.server.__all__:
        assert getattr(repro.server, name) is not None
    assert repro.server.OPS is ops.OPS
    # ``ops.coalesce_key`` is no daemon path's and is not re-exported
    assert not hasattr(repro.server, "coalesce_key")
    try:
        repro.server.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")

"""A hermetic ``banger serve`` subprocess: boot, observe, tear down.

Every daemon-backed run gets a fresh process, a fresh temporary
``--store`` inside ``bench/out/`` and an environment with every
``BANGER_*`` variable removed, so one run cannot warm the next.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from bench.spec import OUT_DIR, ROOT, BenchError

#: Variables that would point the program at caches or stores outside the run.
LEAKY_VARS = ("BANGER_CACHE_DIR", "BANGER_STORE_DIR", "BANGER_CACHE_MAX_BYTES")

WORKERS = 2
REQUEST_TIMEOUT_S = 120


def require_hermetic(environ: dict[str, str] | None = None) -> None:
    """Refuse to run while a cache/store variable is set.

    The daemon's environment is scrubbed anyway, but ``pipeline_batch`` and
    the traced replay run the program *in this process*, where a
    ``ScheduleService`` would read these variables.
    """
    environ = os.environ if environ is None else environ
    leaked = [name for name in LEAKY_VARS if environ.get(name)]
    if leaked:
        raise BenchError(
            f"refusing to run with {', '.join(leaked)} set: the benchmark "
            "must not read or write caches outside its own run"
        )


def daemon_env(environ: dict[str, str] | None = None) -> dict[str, str]:
    environ = dict(os.environ if environ is None else environ)
    env = {k: v for k, v in environ.items() if not k.startswith("BANGER_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``bench/out/`` (the run stays in its checkout)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the daemon's worker processes)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces and parens.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            out.append(int(entry.name))
    return out


class Daemon:
    """``with Daemon() as d:`` — a live daemon on ``d.port``."""

    def __init__(self) -> None:
        require_hermetic()
        self.dir = scratch_dir("daemon-")
        self.store = self.dir / "store"
        self.port = 0
        self._proc: subprocess.Popen | None = None
        self._stderr = None

    def __enter__(self) -> "Daemon":
        from repro.client import wait_until_ready

        self._stderr = open(self.dir / "stderr.log", "w", encoding="utf-8")
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--no-access-log",
                 "--timeout", str(REQUEST_TIMEOUT_S), "--store", str(self.store)],
                stdout=subprocess.PIPE, stderr=self._stderr,
                env=daemon_env(), cwd=self.dir, text=True,
            )
            line = self._proc.stdout.readline()
            if not line:
                raise BenchError(f"daemon did not start: {self._stderr_tail()}")
            self.port = json.loads(line)["port"]
            self.client = wait_until_ready(port=self.port, timeout=30)
            self.client.timeout = REQUEST_TIMEOUT_S + 10
        except BaseException:
            self._teardown(check=False)
            raise
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        # A workload that raised keeps its own exception; a clean workload
        # followed by a dirty exit is itself a failure.
        self._teardown(check=exc_type is None)

    def _stderr_tail(self) -> str:
        try:
            return (self.dir / "stderr.log").read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""

    def _teardown(self, check: bool) -> None:
        code = None
        try:
            if self._proc is not None:
                if self._proc.poll() is None:
                    self._proc.send_signal(signal.SIGTERM)
                try:
                    code = self._proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    code = self._proc.wait()
                self._proc.stdout.close()
            tail = self._stderr_tail()
        finally:
            if self._stderr is not None:
                self._stderr.close()
            shutil.rmtree(self.dir, ignore_errors=True)
        if check and code != 0:
            raise BenchError(f"daemon exited with code {code} on SIGTERM: {tail}")

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #
    def metrics(self) -> dict[str, Any]:
        return self.client.metrics()

    def peak_rss_mb(self) -> float:
        assert self._proc is not None
        pid = self._proc.pid
        return peak_rss_mb([pid] + child_pids(pid))

    def store_bytes_on_disk(self) -> int:
        return sum(
            p.stat().st_size for p in self.store.rglob("*") if p.is_file()
        )

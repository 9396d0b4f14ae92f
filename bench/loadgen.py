"""The closed-loop load generator: a few connections, each waiting for its reply.

Notebook kernels and the edit loop both wait for an answer before asking
the next question, so every workload here is a closed loop: each connection
sends its next request only when the previous reply has been read.  The
latency clock starts when the finished body bytes are handed to the socket
and stops when the whole reply has been read.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from bench.daemon import REQUEST_TIMEOUT_S


@dataclass
class Op:
    """One request, fully built before the clock starts."""

    kind: str
    method: str
    path: str
    body: bytes | None = None
    #: whatever the workload's output check needs to judge the reply
    ctx: Any = None


@dataclass
class Record:
    """One reply as the client saw it; status 0 means no reply at all."""

    index: int
    op: Op
    status: int
    raw: bytes
    start: float
    end: float

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class LoopResult:
    records: list[Record]
    wall_s: float
    build_s: float
    cpu_s: float


def send(conn: http.client.HTTPConnection, op: Op) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if op.body is not None else {}
    conn.request(op.method, op.path, body=op.body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(
    port: int,
    connections: int,
    make_op: Callable[[int], Op | None],
    seconds: float,
    group: int = 1,
    first_index: int = 0,
) -> LoopResult:
    """Run operations ``first_index, first_index+1, ...`` for ``seconds``.

    Operations are handed out in index order to whichever connection is
    free.  Once the time is up the loop still finishes the current group of
    ``group`` operations, so a workload that cycles through unlike inputs
    always measures whole cycles.  It also ends when ``make_op`` returns
    ``None`` (inputs exhausted).
    """
    lock = threading.Lock()
    state = {"next": first_index, "build": 0.0}
    records: list[Record] = []
    deadline = time.perf_counter() + seconds

    def worker() -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S + 10
        )
        try:
            while True:
                with lock:
                    index = state["next"]
                    on_boundary = (index - first_index) % group == 0
                    if on_boundary and time.perf_counter() >= deadline:
                        return
                    state["next"] = index + 1
                t_build = time.perf_counter()
                op = make_op(index)
                built = time.perf_counter() - t_build
                if op is None:
                    with lock:
                        state["next"] = index  # nobody gets past the end
                    return
                start = time.perf_counter()
                try:
                    status, raw = send(conn, op)
                except (http.client.HTTPException, OSError) as exc:
                    status, raw = 0, repr(exc).encode()
                    conn.close()
                end = time.perf_counter()
                with lock:
                    state["build"] += built
                    records.append(Record(index, op, status, raw, start, end))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    cpu0, t0 = time.process_time(), time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    records.sort(key=lambda r: r.index)
    return LoopResult(records, wall, state["build"], time.process_time() - cpu0)

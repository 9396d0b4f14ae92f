"""The banger daemon: the Banger pipeline behind a socket.

The paper's promise is *instant feedback* for a single scientist at a
terminal; the ROADMAP's promise is the same feedback loop as a managed
service under heavy traffic.  This package is that service — a
stdlib-only asyncio JSON-over-HTTP daemon (``banger serve``) exposing
lint, scheduling, sweeps, simulation, speedup prediction, and the
conformance fuzzer as endpoints, with:

* **request coalescing** — N in-flight identical requests (the same op
  and body bytes) trigger one computation and share one byte-identical
  response;
* **response caching** — completed answers are kept in a bounded LRU, so
  a warm ``/schedule`` is a hash lookup, not a scheduler run;
* **a bounded worker pool** — CPU-bound work runs in restartable worker
  processes with per-request timeouts, kill-on-disconnect cancellation,
  and crash isolation (a dead worker fails only its own request);
* **backpressure** — a bounded admission queue answers 503 instead of
  growing without bound;
* **observability** — structured JSON access logs and a ``/metrics``
  endpoint aggregating server counters, :class:`ServiceStats`, and
  :func:`kernel_counters` from every worker;
* **graceful shutdown** — SIGTERM stops accepting connections, drains
  every in-flight request, then exits 0.

See ``docs/server.md`` for the endpoint catalogue and failure semantics,
and :mod:`repro.client` for the thin blocking client.
"""

import importlib

#: Public name -> the submodule that defines it, imported on first use
#: (PEP 562): ``banger lint`` imports ``repro.server.ops`` through this
#: package and must not pay for the asyncio daemon, its metrics and its pool.
_HOME = {
    "BangerDaemon": "app", "run_daemon": "app",
    "ServerMetrics": "metrics",
    "OPS": "ops", "execute": "ops",
    "WorkerCrash": "workers", "WorkerPool": "workers", "WorkerTimeout": "workers",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)

"""One benchmark run: set up, measure, check, and name every metric.

``--trace 0`` measures the end-to-end metrics with no tracer installed.
``--trace 1`` spends half its time on the same live workload (for the
client-side and ``/metrics`` figures) and half on the traced replay, and
reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any

from repro.env.project import BangerProject
from repro.sched.core import kernel_counters
from repro.server.app import ROUTES

from bench import replay, stats
from bench.daemon import Daemon, peak_rss_mb, require_hermetic
from bench.edit_loop import EditLoop
from bench.hostspeed import HostSpeed
from bench.loadgen import closed_loop
from bench.pipeline_batch import SOURCE_TARGETS, PipelineBatch
from bench.spec import FULL, OUT_DIR, ROOT, SMOKE, BenchError, load_spec
from bench.sweep_cold import SweepCold
from bench.trace import SCHEDULERS, Tracer
from bench.warm_mix import TENANT, WarmMix

SERVER_ENDPOINTS = ("schedule", "sweep", "simulate", "lint", "codegen")


@dataclass
class Live:
    """What the untraced, measured phase saw."""

    latencies_ms: list[float]
    attempted: int
    failures: list[str]
    #: perf_counter readings at the start and end of the measured phase
    t0: float
    t1: float
    peak_rss_mb: float
    build_s: float = 0.0
    cpu_s: float = 0.0
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    by_index: dict[int, float] = field(default_factory=dict)
    before: dict[str, Any] | None = None
    after: dict[str, Any] | None = None
    store_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def make_workload(name: str, seed: int, seconds: float, smoke: bool) -> Any:
    sizes = SMOKE if smoke else FULL
    if name == "edit_loop":
        return EditLoop(seed, sizes)
    if name == "sweep_cold":
        return SweepCold(seed, sizes, seconds)
    if name == "warm_mix":
        return WarmMix(seed, sizes, seconds)
    if name == "pipeline_batch":
        return PipelineBatch(seed, sizes)
    raise BenchError(f"unknown workload {name!r}")


# --------------------------------------------------------------------- #
# the measured phase
# --------------------------------------------------------------------- #
def live_daemon(workload: Any, seconds: float) -> Live:
    with Daemon() as daemon:
        workload.warm(daemon)
        before = daemon.metrics()
        t0 = time.perf_counter()
        loop = closed_loop(
            daemon.port, workload.connections, workload.make_op, seconds,
            group=workload.group, first_index=workload.first_index,
        )
        t1 = time.perf_counter()
        after = daemon.metrics()
        rss = daemon.peak_rss_mb()
        store_bytes = daemon.store_bytes_on_disk()
    by_kind: dict[str, list[float]] = {}
    for record in loop.records:
        by_kind.setdefault(record.op.kind, []).append(record.latency_ms)
    return Live(
        latencies_ms=[r.latency_ms for r in loop.records],
        attempted=len(loop.records),
        failures=workload.verify(loop.records),
        t0=t0, t1=t1, peak_rss_mb=rss,
        build_s=loop.build_s, cpu_s=loop.cpu_s, by_kind=by_kind,
        by_index={r.index: r.latency_ms for r in loop.records},
        before=before, after=after, store_bytes=store_bytes,
    )


def live_batch(workload: PipelineBatch, seconds: float) -> Live:
    cpu0, t0 = time.process_time(), time.perf_counter()
    outcomes = workload.run_passes(seconds, tracer=None)
    t1, cpu = time.perf_counter(), time.process_time() - cpu0
    return Live(
        latencies_ms=[o.latency_ms for o in outcomes],
        attempted=len(outcomes),
        failures=workload.verify(outcomes),
        t0=t0, t1=t1, peak_rss_mb=peak_rss_mb([os.getpid()]), cpu_s=cpu,
    )


def raw_readings(live: Live, t_start: float) -> dict[str, float]:
    """The time-based end-to-end readings exactly as the clock gave them."""
    return {
        "latency_p50_ms": stats.median(live.latencies_ms),
        "ops_per_s": (live.attempted - live.failed) / live.wall_s,
        "setup_s": live.t0 - t_start,
    }


def end_to_end(live: Live, host: HostSpeed, t_start: float) -> dict[str, float]:
    """The end-to-end metrics, times restated at host speed 1.0."""
    raw = raw_readings(live, t_start)
    measured, setup = host.speed(live.t0, live.t1), host.speed(t_start, live.t0)
    return {
        "latency_p50_ms": raw["latency_p50_ms"] * measured,
        "ops_per_s": raw["ops_per_s"] / measured,
        "peak_rss_mb": live.peak_rss_mb,
        "setup_s": raw["setup_s"] * setup,
    }


# --------------------------------------------------------------------- #
# the traced phase
# --------------------------------------------------------------------- #
def traced_daemon(workload: Any, seconds: float, tracer: Tracer,
                  last_index: int) -> dict[str, float]:
    """Replay requests up to ``last_index`` under ``tracer``.

    Returns the point measurements that need the replay's project store.
    """
    probe = replay.PoolProbe()  # forks its worker before anything is wrapped
    replayer = replay.Replayer(tracer, probe)
    try:
        # Fill the replay's caches and store the way warm-up fills the
        # daemon's, with the spans thrown away.
        replayer.tracer = Tracer()
        for op in workload.replay_warm_ops():
            replayer.request(op)
        replayer.tracer = tracer
        tracer.install()
        try:
            # The same operations, in the same order, as the measured phase
            # (and no further: a replayed request is paired with a live one).
            deadline = time.perf_counter() + seconds
            for index in range(workload.first_index, last_index + 1):
                replayer.request(workload.make_op(index), index)
                if time.perf_counter() >= deadline:
                    break
        finally:
            tracer.remove()
        if isinstance(workload, WarmMix):
            return replay.measure_store(replayer.repo, TENANT, workload.names[0])
        return {}
    finally:
        replayer.close()
        probe.close()


def traced_batch(workload: PipelineBatch, seconds: float, tracer: Tracer) -> list[Any]:
    tracer.install()
    try:
        return workload.run_passes(seconds, tracer)
    finally:
        tracer.remove()


def point_measurements(workload: Any) -> dict[str, float]:
    """Single layers timed on one of the workload's own designs."""
    project = BangerProject.from_dict(workload.micro_doc())
    flat, machine = project.flat(), project.machine
    return {**replay.measure_machine(machine),
            **replay.measure_service(flat, machine)}


def _median(values: list[float]) -> float:
    return stats.median(values) if values else 0.0


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload: Any, live: Live, tracer: Tracer,
              points: dict[str, float], traced_outcomes: list[Any]) -> dict[str, float]:
    """Every per-layer metric, by name; 0 where the workload has no such layer."""
    spec = load_spec()
    out = {m["name"]: 0.0 for m in spec["per_layer"]}
    out.update(points)

    def span_ms(name: str, self_time: bool = False) -> float:
        return _median(list(tracer.per_op(name, self_time).values()))

    # ---- spans -------------------------------------------------------- #
    for metric, span, own in (
        ("server.parse_ms", "server.parse", False),
        ("server.coalesce_key_ms", "server.coalesce_key", False),
        ("server.execute_ms", "server.execute", False),
        ("server.serialize_ms", "server.serialize", False),
        ("graph.inflate_ms", "graph.inflate", False),
        ("graph.flatten_ms", "graph.flatten", False),
        ("graph.fingerprint_ms", "graph.fingerprint", True),
        ("sched.kernel_build_ms", "sched.kernel_build", False),
        ("sched.incremental_ms", "sched.incremental", False),
        ("sched.schedule_from_dict_ms", "sched.schedule_from_dict", False),
        ("sched.schedule_to_dict_ms", "sched.schedule_to_dict", False),
        ("sched.report_ms", "sched.report", False),
        ("sched.reactive_ms", "sched.reactive", False),
        ("sim.static_ms", "sim.static", False),
        ("sim.contention_ms", "sim.contention", False),
        ("sim.dynamic_ms", "sim.dynamic", False),
        ("codegen.lower_ms", "codegen.lower", False),
        ("codegen.run_inproc_ms", "codegen.run_inproc", False),
        ("codegen.run_threads_ms", "codegen.run_threads", False),
        ("lint.project_ms", "lint.project", True),
        ("analysis.concurrency_ms", "analysis.concurrency", False),
        ("calc.run_ms", "calc.run", False),
        ("store.put_ms", "store.put", False),
        ("store.get_ms", "store.get", False),
        ("store.diff_ms", "store.diff", False),
    ):
        out[metric] = span_ms(span, own)
    for sched in SCHEDULERS:
        out[f"sched.loop_ms.{sched}"] = span_ms(f"sched.loop.{sched}", self_time=True)
    for target in SOURCE_TARGETS:
        out[f"codegen.emit_ms.{target}"] = span_ms(f"codegen.emit.{target}")
    out["graph.inflates_per_op"] = _median(
        [float(n) for n in tracer.count_per_op("graph.inflate").values()]
    )

    ops = tracer.ops
    out["server.body_bytes_in"] = _median([o["bytes_in"] for o in ops if "bytes_in" in o])
    out["server.body_bytes_out"] = _median([o["bytes_out"] for o in ops if "bytes_out" in o])
    ipc = {o["op"]: o["ipc_ms"] for o in ops if "ipc_ms" in o}
    out["server.ipc_ms"] = _median(list(ipc.values()))
    out["sched.reused_fraction"] = _median(
        [o["result"]["reused_fraction"] for o in ops
         if "reused_fraction" in o.get("result", {})]
    )

    roots = tracer.root_ms()
    live_p50 = stats.median(live.latencies_ms)
    if traced_outcomes:
        # In-process: the same code ran untraced first, then traced.
        latency = {o["op"]: t.latency_ms for o, t in zip(ops, traced_outcomes)}
        out["trace.overhead_ratio"] = _median(list(latency.values())) / live_p50
        out["trace.coverage_ratio"] = _median(
            [roots[op] / ms for op, ms in latency.items()])
    else:
        # Through the daemon: pair each replayed request with the live
        # latency of the same request; what no span covers is transport.
        pairs = [
            (live.by_index[o["index"]], roots[o["op"]] + ipc.get(o["op"], 0.0))
            for o in ops if o["index"] in live.by_index
        ]
        if not pairs:
            raise BenchError("the replay shares no request with the live phase")
        out["server.transport_ms"] = _median([seen - spans for seen, spans in pairs])
        share = _median([spans / seen for seen, spans in pairs])
        out["trace.overhead_ratio"] = out["trace.coverage_ratio"] = share
    under = tracer.per_op_prefix(("sched.", "machine."))
    out["trace.sched_machine_share"] = _median(
        [under.get(op, 0.0) / ms for op, ms in roots.items() if ms]
    )
    out["trace.ops"] = float(len(ops))

    # ---- sizes -------------------------------------------------------- #
    sizes = workload.input_sizes()
    for metric, key in (("graph.n_tasks", "tasks"), ("graph.n_edges", "edges")):
        value = sizes.get(key, 0)
        out[metric] = _median(list(value)) if isinstance(value, list) else float(value)

    # ---- the load generator ------------------------------------------ #
    n = len(live.latencies_ms)
    out["client.samples"] = float(n)
    out["client.latency_tail_pct"] = stats.tail_percentile(n)
    out["client.latency_tail_ms"] = stats.percentile(
        live.latencies_ms, out["client.latency_tail_pct"]
    )
    out["client.build_ms"] = live.build_s * 1000.0 / n
    out["client.cpu_share"] = live.cpu_s / live.wall_s
    out["client.store_put_ms"] = _median(live.by_kind.get("store_put", []))
    out["client.store_get_ms"] = _median(live.by_kind.get("store_get", []))

    # ---- counters ----------------------------------------------------- #
    if live.after is not None:
        server0, server1 = live.before["server"], live.after["server"]
        work0, work1 = server0["work"], server1["work"]

        def delta(name: str) -> float:
            return float(server1[name] - server0[name])

        def work(name: str) -> float:
            return float(work1.get(name, 0) - work0.get(name, 0))

        asked = sum(
            server1["by_endpoint"].get(path, 0) - server0["by_endpoint"].get(path, 0)
            for path in ROUTES
        )
        out["server.cache_hit_ratio"] = delta("cache_hits") / asked if asked else 0.0
        out["server.computed"] = delta("computed")
        out["server.coalesced"] = delta("coalesce_hits")
        out["server.rejected"] = delta("rejected")
        out["server.timeouts"] = delta("timeouts")
        out["server.worker_crashes"] = delta("worker_crashes")
        for endpoint in SERVER_ENDPOINTS:
            window = server1["latency_ms"].get("/" + endpoint, {})
            out[f"server.latency_p50_ms.{endpoint}"] = float(window.get("p50", 0.0))
        out["sched.runs"] = work("sched_runs")
        out["sched.service_hit_ratio"] = _ratio(work("service_hits"), work("sched_runs"))
        out["sched.route_cache_hit_ratio"] = _ratio(
            work("route_cache_hits"), work("route_cache_misses"))
        out["sched.compiled_hit_ratio"] = _ratio(
            work("compiled_hits"), work("compiled_misses"))
        out["store.dedup_ratio"] = float(live.after["store"]["blob"]["dedup_ratio"])
        out["store.bytes_on_disk"] = float(live.store_bytes)
    else:
        asked = sum(tracer.count_per_op("sched.service").values())
        runs = sum(sum(tracer.count_per_op(f"sched.loop.{s}").values())
                   for s in SCHEDULERS)
        out["sched.runs"] = float(runs)
        out["sched.service_hit_ratio"] = (asked - runs) / asked if asked else 0.0
        counters = kernel_counters()
        out["sched.route_cache_hit_ratio"] = _ratio(
            counters["route_cache_hits"], counters["route_cache_misses"])
        out["sched.compiled_hit_ratio"] = _ratio(
            counters["compiled_hits"], counters["compiled_misses"])

    # ---- what only the batch sees ------------------------------------ #
    if traced_outcomes:
        static = tracer.per_op("sim.static")
        out["sim.tasks_per_s"] = _median([
            o["tasks"] / (static[o["op"]] / 1000.0)
            for o in ops if static.get(o["op"])
        ])
        out["lint.diagnostics"] = _median([float(o.diagnostics) for o in traced_outcomes])
        out["codegen.ir_ops"] = _median([float(o.ir_ops) for o in traced_outcomes])
        for target in SOURCE_TARGETS:
            out[f"codegen.source_bytes.{target}"] = _median(
                [float(o.source_bytes[target]) for o in traced_outcomes])
    return out


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def environment() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        t_start: float) -> dict[str, Any]:
    """Run one workload once; returns the result the last stdout line carries."""
    require_hermetic()
    spec = load_spec()
    tracer = Tracer()
    traced_outcomes: list[Any] = []
    points: dict[str, float] = {}
    with HostSpeed() as host:
        workload = make_workload(name, seed, seconds, smoke)
        batch = isinstance(workload, PipelineBatch)
        measure = seconds / 2 if trace else seconds
        live = live_batch(workload, measure) if batch else live_daemon(workload, measure)
        if trace and batch:
            traced_outcomes = traced_batch(workload, measure, tracer)
            live.failures += workload.verify(traced_outcomes)
            live.attempted += len(traced_outcomes)
        elif trace:
            points = traced_daemon(workload, measure, tracer, max(live.by_index))
        if trace:
            points.update(point_measurements(workload))
    if not trace:
        values = end_to_end(live, host, t_start)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        values = per_layer(workload, live, tracer, points, traced_outcomes)
        raw = raw_readings(live, t_start)
        values.update({
            "client.host_speed": host.speed(live.t0, live.t1),
            "client.latency_p50_raw_ms": raw["latency_p50_ms"],
            "client.ops_per_s_raw": raw["ops_per_s"],
            "client.setup_raw_s": raw["setup_s"],
        })
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.write(OUT_DIR / f"trace-{name}.json", workload=name, seed=seed,
                     smoke=smoke)
    if set(values) != set(units):
        raise BenchError(
            f"metric names drifted from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    result = {
        "correct": live.failed == 0,
        "attempted": live.attempted,
        "failed": live.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "type": "banger-bench-run", "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(), "input_sizes": workload.input_sizes(),
        "samples": len(live.latencies_ms), "failures": live.failures[:20],
        **result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"run-{name}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return detail

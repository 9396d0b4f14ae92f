"""The command line: result schema, the full smoke run, compare, hermeticity."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import report
from bench.daemon import Daemon, daemon_env, require_hermetic
from bench.spec import OUT_DIR, ROOT, BenchError, load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


# --------------------------------------------------------------------- #
# BENCHMARK.json itself
# --------------------------------------------------------------------- #
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * SPEC["run_seconds"] < 3420


# --------------------------------------------------------------------- #
# the full smoke run: every workload, untraced and traced
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.perf_counter()
    done = bench("--smoke", "--seed", "3", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout, elapsed


def test_smoke_run_is_quick(smoke_result):
    assert smoke_result[2] <= 45.0


def test_result_names_match_benchmark_json_exactly(smoke_result):
    result, _, _ = smoke_result
    assert list(result["workloads"]) == WORKLOADS
    for name, entry in result["workloads"].items():
        for run in entry["runs"]:
            assert list(run["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert all(value > 0 for value in run["metrics"].values()), name
        assert list(entry["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert entry["traced"]["failed"] == 0


def test_result_carries_what_makes_two_files_comparable(smoke_result):
    result, _, _ = smoke_result
    for key in ("git_sha", "seed", "seconds", "smoke", "python", "nproc",
                "sizes", "input_sizes"):
        assert key in result, key
    assert result["seed"] == 3 and result["smoke"] is True
    assert result["nproc"] == os.cpu_count()
    assert set(result["input_sizes"]) == set(WORKLOADS)
    assert result["input_sizes"]["edit_loop"]["tasks"] == 200
    assert result["input_sizes"]["edit_loop"]["body_bytes"] > 50_000


def test_every_metric_is_printed_by_name_with_its_unit(smoke_result):
    _, stdout, _ = smoke_result
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in stdout.splitlines()
        ), metric["name"]


def test_the_layers_each_workload_stresses_differ(smoke_result):
    result, _, _ = smoke_result
    layer = {name: entry["per_layer"] for name, entry in result["workloads"].items()}
    assert layer["edit_loop"]["graph.inflates_per_op"] == 2
    assert layer["edit_loop"]["server.cache_hit_ratio"] == 0
    assert layer["sweep_cold"]["server.cache_hit_ratio"] == 0
    assert layer["warm_mix"]["server.cache_hit_ratio"] > 0.3
    assert layer["sweep_cold"]["trace.sched_machine_share"] > \
        2 * layer["edit_loop"]["trace.sched_machine_share"]
    assert layer["pipeline_batch"]["codegen.lower_ms"] > 0
    assert layer["pipeline_batch"]["server.parse_ms"] == 0
    assert layer["edit_loop"]["codegen.lower_ms"] == 0


def test_traced_run_writes_a_span_tree(smoke_result):
    trace = json.loads((OUT_DIR / "trace-edit_loop.json").read_text())
    assert trace["workload"] == "edit_loop"
    spans = {s["id"]: s for s in trace["spans"]}
    first = [s for s in trace["spans"] if s["op"] == 0]
    names = [s["name"] for s in first]
    assert names.count("graph.inflate") == 2
    assert names.index("server.coalesce_key") < names.index("server.execute")
    for span in first:
        assert span["end_ms"] >= span["start_ms"] and span["self_ms"] <= \
            span["end_ms"] - span["start_ms"] + 1e-6
        if span["parent"] is not None:
            assert spans[span["parent"]]["op"] == span["op"]
    incremental = next(s for s in first if s["name"] == "sched.incremental")
    assert spans[incremental["parent"]]["name"] == "server.execute"


def test_single_run_prints_one_json_object_last():
    done = bench("--workload", "pipeline_batch", "--seed", "2", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def result_file(path: Path, scale=None, spread=0.0, failed=0, **header):
    """A synthetic result file; ``scale`` multiplies one (workload, metric)."""
    doc = {"type": "banger-bench-result", "git_sha": "f" * 40, "seed": 1,
           "seconds": 15, "smoke": False, "python": "3.11.7", "nproc": 2,
           "input_sizes": {"edit_loop": {"tasks": 1000}}, "workloads": {}}
    doc.update(header)
    base = {"latency_p50_ms": 100.0, "ops_per_s": 10.0, "peak_rss_mb": 200.0,
            "setup_s": 5.0}
    for workload in WORKLOADS:
        runs = []
        for wobble in (-1.0, 0.0, 1.0):
            metrics = dict(base)
            for (w, m), factor in (scale or {}).items():
                if w == workload:
                    metrics[m] *= factor * (1.0 + wobble * spread)
            runs.append({"attempted": 100, "failed": failed, "samples": 100,
                         "metrics": metrics})
        doc["workloads"][workload] = {"runs": runs, "per_layer": {}}
    path.write_text(json.dumps(doc))
    return path


def test_verdicts():
    assert report.verdict([100] * 3, [105] * 3, "lower", 0.1)[0] == "within bound"
    assert report.verdict([100] * 3, [115] * 3, "lower", 0.1)[0] == "worse"
    assert report.verdict([100] * 3, [85] * 3, "lower", 0.1)[0] == "better"
    assert report.verdict([10] * 3, [8.5] * 3, "higher", 0.1)[0] == "worse"
    assert report.verdict([10] * 3, [11.5] * 3, "higher", 0.1)[0] == "better"
    # a spread wider than the bound resolves nothing while the runs overlap
    assert report.verdict([90, 100, 110], [95, 104, 115], "lower", 0.1)[0] == "unresolved"
    assert report.verdict([90, 100, 110], [60, 70, 80], "lower", 0.1)[0] == "better"
    assert report.verdict([90, 100, 110], [130, 140, 150], "lower", 0.1)[0] == "worse"
    word, worsening = report.verdict([100] * 3, [115] * 3, "lower", 0.1)
    assert worsening == pytest.approx(0.15)


def test_compare_exit_codes_and_rows(tmp_path, capsys):
    a = result_file(tmp_path / "a.json")
    same = result_file(tmp_path / "same.json")
    assert report.compare(a, same) == 0
    out = capsys.readouterr().out
    assert out.count("within bound") == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    assert "of 100.0000" in out  # every ratio is printed with its base

    slower = result_file(tmp_path / "b.json", {("edit_loop", "latency_p50_ms"): 1.4})
    assert report.compare(a, slower) == 1
    out = capsys.readouterr().out
    row = next(l for l in out.splitlines() if "latency_p50_ms" in l and "worse by +40.0%" in l)
    assert row.endswith("worse")

    faster = result_file(tmp_path / "c.json", {("warm_mix", "ops_per_s"): 1.4})
    assert report.compare(a, faster) == 0
    assert "better" in capsys.readouterr().out

    noisy = result_file(tmp_path / "d.json", {("sweep_cold", "ops_per_s"): 1.0}, spread=0.4)
    assert report.compare(a, noisy) == 0
    assert "unresolved" in capsys.readouterr().out

    failing = result_file(tmp_path / "e.json", failed=1)
    assert report.compare(a, failing) == 1
    assert "any rise is a regression" in capsys.readouterr().out


def test_compare_refuses_files_that_do_not_match(tmp_path, capsys):
    a = result_file(tmp_path / "a.json")
    other = result_file(tmp_path / "b.json", nproc=8, seed=2)
    assert report.compare(a, other) == 2
    out = capsys.readouterr().out
    assert "NOT COMPARABLE: nproc is 2" in out and "NOT COMPARABLE: seed" in out
    done = bench("compare", str(a), str(other))
    assert done.returncode == 2


# --------------------------------------------------------------------- #
# hermeticity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["BANGER_CACHE_DIR", "BANGER_STORE_DIR",
                                  "BANGER_CACHE_MAX_BYTES"])
def test_refuses_to_run_with_a_leaky_variable(name, tmp_path):
    with pytest.raises(BenchError, match=name):
        require_hermetic({name: str(tmp_path)})
    env = dict(os.environ, **{name: str(tmp_path)})
    done = bench("--workload", "pipeline_batch", "--seconds", "1", "--trace", "0",
                 "--smoke", env=env)
    assert done.returncode != 0 and name in done.stderr
    assert not done.stdout.strip().endswith("}")


def test_daemon_environment_is_scrubbed():
    env = daemon_env({"BANGER_ANYTHING": "1", "BANGER_CACHE_DIR": "/x", "HOME": "/h"})
    assert not [k for k in env if k.startswith("BANGER_")]
    assert env["HOME"] == "/h" and env["PYTHONPATH"].endswith("src")


def test_daemon_is_torn_down_even_when_the_workload_raises():
    with pytest.raises(RuntimeError, match="workload blew up"):
        with Daemon() as daemon:
            pid, directory = daemon._proc.pid, daemon.dir
            assert daemon.metrics()["workers"]["alive"] == 2
            assert str(daemon.store).startswith(str(OUT_DIR))
            raise RuntimeError("workload blew up")
    assert daemon._proc.returncode == 0  # SIGTERM drained it cleanly
    assert not Path(f"/proc/{pid}").exists()
    assert not directory.exists()


def test_exits_non_zero_where_the_program_is_missing(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "edit_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""Result files: printing a run, running everything, comparing two files."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from bench import stats
from bench.spec import FULL, OUT_DIR, ROOT, SMOKE, BenchError, load_spec

SMOKE_SECONDS = 2

#: Fields of a result file that must match for two files to be comparable.
COMPARABLE = ("seed", "seconds", "smoke", "python", "nproc", "input_sizes")


def print_run(detail: dict[str, Any]) -> None:
    """Every metric of one run by name, with its unit."""
    mode = "per-layer (traced)" if detail["trace"] else "end-to-end (tracing off)"
    print(f"== {detail['workload']}  seed {detail['seed']}  "
          f"{detail['seconds']:g} s  {mode}")
    print(f"   attempted {detail['attempted']}  failed {detail['failed']}  "
          f"samples {detail['samples']}")
    for failure in detail["failures"]:
        print(f"   FAILED {failure}")
    for name, metric in detail["metrics"].items():
        print(f"   {name:34s} {metric['value']:16.4f} {metric['unit']}")


# --------------------------------------------------------------------- #
# the full run
# --------------------------------------------------------------------- #
def _one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    """One run in a fresh subprocess; returns its detail document."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        raise BenchError(f"run of {workload} exited with code {done.returncode}")
    path = OUT_DIR / f"run-{workload}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def full_run(seed: int, seconds: float, smoke: bool, runs: int,
             out: Path | None) -> int:
    """Every workload ``runs`` times untraced and once traced; one result file."""
    spec = load_spec()
    result: dict[str, Any] = {
        "type": "banger-bench-result", "seed": seed, "seconds": seconds,
        "smoke": smoke, "sizes": (SMOKE if smoke else FULL).as_dict(),
        "input_sizes": {}, "workloads": {},
    }
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        details = [_one(workload, seed, seconds, 0, smoke) for _ in range(runs)]
        traced = _one(workload, seed, seconds, 1, smoke)
        result.update(details[0]["environment"])
        result["input_sizes"][workload] = details[0]["input_sizes"]
        result["workloads"][workload] = {
            "runs": [
                {"attempted": d["attempted"], "failed": d["failed"],
                 "samples": d["samples"],
                 "metrics": {k: m["value"] for k, m in d["metrics"].items()}}
                for d in details
            ],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced": {"attempted": traced["attempted"], "failed": traced["failed"]},
        }
        failed += sum(d["failed"] for d in details) + traced["failed"]
    out = out or OUT_DIR / f"result-{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"result written to {out}; {failed} failed operation(s)")
    return 1 if failed else 0


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of runs ``b`` against runs ``a``.

    ``worsening`` is the change of the median in the metric's bad
    direction, as a share of ``a``'s median.  When either side's own
    spread is wider than the bound the metric is *unresolved*, unless every
    run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = stats.median(a)
    worsening = sign * (stats.median(b) - base) / abs(base)
    if max(stats.spread(a), stats.spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better", worsening
        if all(sign * y > sign * x for x in a for y in b) and worsening > bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within bound", worsening


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def compare(path_a: Path, path_b: Path) -> int:
    """Print one row per (workload, end-to-end metric); non-zero on *worse*."""
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    mismatched = [k for k in COMPARABLE if a.get(k) != b.get(k)]
    if mismatched:
        for key in mismatched:
            print(f"NOT COMPARABLE: {key} is {_brief(a.get(key))} in "
                  f"{path_a.name} but {_brief(b.get(key))} in {path_b.name}")
        return 2
    spec = load_spec()
    print(f"A = {path_a} ({a['git_sha'][:12]})   B = {path_b} ({b['git_sha'][:12]})")
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        print(f"== {workload}  ({len(runs_a)} vs {len(runs_b)} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in runs_a]
            vb = [r["metrics"][name] for r in runs_b]
            word, worsening = verdict(va, vb, metric["better"], metric["bound"])
            bad |= word == "worse"
            base = stats.median(va)
            print(f"   {name:16s} {base:12.4f} -> {stats.median(vb):12.4f} "
                  f"{metric['unit']:5s} worse by {worsening:+.1%} of {base:.4f} "
                  f"(bound {metric['bound']:.0%}, spreads "
                  f"{stats.spread(va):.1%}/{stats.spread(vb):.1%})  {word}")
        fail_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        fail_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        word = "worse" if fail_b > fail_a else "within bound"
        bad |= fail_b > fail_a
        print(f"   {'fail_ratio':16s} {fail_a:12.4f} -> {fail_b:12.4f}       "
              f"(failed / attempted; any rise is a regression)  {word}")
    return 1 if bad else 0

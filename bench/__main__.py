"""Command line of the benchmark; see :mod:`bench` for the three forms."""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time is counted from process start

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: the program under test (src/repro) is not in this "
              "checkout; nothing to measure", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from bench.spec import BenchError

    try:
        if argv[:1] == ["compare"]:
            return compare_command(argv[1:])
        return run_command(argv)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


def run_command(argv: list[str]) -> int:
    from bench import report, runner
    from bench.spec import load_spec

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=names,
                        help="run this workload once (default: all, plus traced runs)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {spec['run_seconds']}, "
                             f"{report.SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths on small inputs")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in a full run")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file of a full run (default bench/out/result-<seed>.json)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = report.SMOKE_SECONDS if args.smoke else spec["run_seconds"]

    if args.workload is None:
        if args.trace is not None:
            parser.error("--trace needs --workload")
        return report.full_run(args.seed, seconds, args.smoke, args.runs, args.out)

    detail = runner.run(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke, T_START)
    report.print_run(detail)
    result = {k: detail[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


def compare_command(argv: list[str]) -> int:
    from bench import report

    parser = argparse.ArgumentParser(prog="python3 -m bench compare")
    parser.add_argument("a", type=Path, help="result file of the parent")
    parser.add_argument("b", type=Path, help="result file of the change")
    args = parser.parse_args(argv)
    return report.compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

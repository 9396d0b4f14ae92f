"""What the benchmark measures: names from ``BENCHMARK.json``, sizes from here.

``BENCHMARK.json`` admits only the keys its contract lists, so the input
sizes of each workload live in :class:`Sizes` (one instance for the full
benchmark, one for ``--smoke``) and are copied into every result file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result; exit non-zero."""


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Sizes:
    """Every size a workload's input generator reads."""

    #: edit_loop: random_layered(tasks, layers, edge_prob) on a hypercube
    edit_tasks: int
    edit_layers: int
    edit_edge_prob: float
    edit_procs: int
    #: sweep_cold: (generator, args) per design of one lap
    sweep_designs: tuple[tuple[str, tuple], ...]
    sweep_schedulers: tuple[str, ...]
    sweep_proc_counts: tuple[int, ...]
    #: warm_mix: keys = valid (project, endpoint) pairs x variants
    mix_variants: int
    mix_store_names: int
    mix_warmup_requests: int
    #: pipeline_batch: lun_design(n) for each n, after the six examples
    batch_lun_sizes: tuple[int, ...]

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


FULL = Sizes(
    # 600 tasks, not the ROADMAP's 1000: a 1000-task edit costs 4-6 s, so a
    # 15 s run held three samples and its median did not repeat.
    edit_tasks=600, edit_layers=20, edit_edge_prob=0.03, edit_procs=64,
    sweep_designs=(
        # sized so that every design costs about the same to sweep: the
        # median of a lap then does not hinge on which design sits mid-list
        ("random_layered", (135, 8, 0.08)),
        ("random_layered", (150, 15, 0.12)),
        ("random_layered", (140, 5, 0.05)),
        ("random_layered", (150, 20, 0.15)),
        ("cholesky", (10,)),
        ("wavefront", (23,)),
        ("bitonic_sort", (32,)),
        ("gaussian_elimination", (22,)),
    ),
    sweep_schedulers=("mh", "etf", "dls", "hlfet"),
    sweep_proc_counts=(2, 4, 8, 16),
    mix_variants=16, mix_store_names=64, mix_warmup_requests=1500,
    # 6 examples + 7 systems = 13 projects: an odd count, so the median
    # operation is one project (lun6) and not the gap between two
    batch_lun_sizes=tuple(range(6, 13)),
)

SMOKE = Sizes(
    edit_tasks=200, edit_layers=10, edit_edge_prob=0.05, edit_procs=16,
    sweep_designs=(
        ("random_layered", (40, 5, 0.2)),
        ("cholesky", (4,)),
        ("wavefront", (6,)),
        ("gaussian_elimination", (8,)),
    ),
    sweep_schedulers=("mh", "etf", "dls", "hlfet"),
    sweep_proc_counts=(2, 4, 8, 16),
    mix_variants=16, mix_store_names=16, mix_warmup_requests=200,
    batch_lun_sizes=(6, 7, 8),
)

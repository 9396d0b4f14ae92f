"""PPSE-style scheduling: heuristics, schedules, metrics, speedup sweeps.

The registry maps heuristic names to zero-argument factories::

    from repro.sched import get_scheduler
    sched = get_scheduler("mh").schedule(graph, machine)
"""

from repro.errors import ScheduleError
from repro.sched.base import Scheduler
from repro.sched.baselines import RandomScheduler, RoundRobinScheduler, SerialScheduler
from repro.sched.core import (
    KernelState,
    ReadyHeap,
    ReadySet,
    SchedKernel,
    kernel_counters,
)
from repro.sched.cpop import CPOPScheduler
from repro.sched.clustering import (
    LinearClusteringScheduler,
    assignment_to_schedule,
    linear_clusters,
    map_clusters_lpt,
)
from repro.sched.dsc import (
    DSCScheduler,
    SarkarScheduler,
    cluster_makespan,
    dsc_clusters,
    sarkar_clusters,
)
from repro.sched.dsh import DSHScheduler
from repro.sched.explain import (
    Explanation,
    explain_placement,
    explain_schedule,
    render_explanations,
)
from repro.sched.edit import (
    EditResult,
    best_single_move,
    hill_climb,
    move_cluster,
    move_task,
    primary_assignment,
    swap_tasks,
)
from repro.sched.anneal import AnnealingScheduler
from repro.sched.optimal import ExhaustiveScheduler
from repro.sched.serialize import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.sched.incremental import (
    IncrementalResult,
    dirty_closure,
    dirty_tasks,
    full_reschedule,
    incremental_reschedule,
)
from repro.sched.reactive import (
    ReactiveResult,
    ReactiveRound,
    Trigger,
    detect_triggers,
    reactive_execute,
)
from repro.sched.grain import (
    GrainPackedScheduler,
    Packing,
    expand_packed_schedule,
    pack_by_ratio,
    pack_linear_chains,
)
from repro.sched.listsched import (
    DLSScheduler,
    ETFScheduler,
    HLFETScheduler,
    ISHScheduler,
    MCPScheduler,
)
from repro.sched.metrics import (
    ScheduleReport,
    average_utilization,
    comm_time_total,
    efficiency,
    load_imbalance,
    message_stats,
    report,
    schedule_length_ratio,
    serial_time,
    speedup,
    utilization,
)
from repro.sched.mh import MHScheduler
from repro.sched.registry import (
    SCHEDULERS,
    get_scheduler,
    resolve_scheduler,
    scheduler_cache_key,
)
from repro.sched.schedule import Message, Placement, Schedule
from repro.sched.sweeps import (
    SpeedupPoint,
    SpeedupReport,
    predict_speedup,
    schedules_for_sizes,
)
from repro.sched.service import (
    ScheduleRequest,
    ScheduleService,
    ServiceStats,
    as_request,
    default_family,
    default_service,
)
from repro.sched.validate import check_schedule, schedule_problems


__all__ = [
    "AnnealingScheduler",
    "CPOPScheduler",
    "DLSScheduler",
    "ReactiveResult",
    "ReactiveRound",
    "Trigger",
    "detect_triggers",
    "reactive_execute",
    "schedule_from_dict",
    "schedule_from_json",
    "schedule_to_dict",
    "schedule_to_json",
    "DSCScheduler",
    "DSHScheduler",
    "EditResult",
    "ExhaustiveScheduler",
    "Explanation",
    "explain_placement",
    "explain_schedule",
    "render_explanations",
    "best_single_move",
    "hill_climb",
    "move_cluster",
    "move_task",
    "primary_assignment",
    "swap_tasks",
    "SarkarScheduler",
    "cluster_makespan",
    "dsc_clusters",
    "sarkar_clusters",
    "ETFScheduler",
    "GrainPackedScheduler",
    "HLFETScheduler",
    "IncrementalResult",
    "dirty_closure",
    "dirty_tasks",
    "full_reschedule",
    "incremental_reschedule",
    "ISHScheduler",
    "KernelState",
    "ReadyHeap",
    "ReadySet",
    "SchedKernel",
    "kernel_counters",
    "LinearClusteringScheduler",
    "MCPScheduler",
    "MHScheduler",
    "Message",
    "Packing",
    "Placement",
    "RandomScheduler",
    "RoundRobinScheduler",
    "SCHEDULERS",
    "Schedule",
    "ScheduleReport",
    "ScheduleRequest",
    "ScheduleService",
    "Scheduler",
    "ServiceStats",
    "as_request",
    "default_family",
    "default_service",
    "resolve_scheduler",
    "scheduler_cache_key",
    "SerialScheduler",
    "SpeedupPoint",
    "SpeedupReport",
    "assignment_to_schedule",
    "average_utilization",
    "check_schedule",
    "comm_time_total",
    "efficiency",
    "expand_packed_schedule",
    "get_scheduler",
    "linear_clusters",
    "load_imbalance",
    "map_clusters_lpt",
    "message_stats",
    "pack_by_ratio",
    "pack_linear_chains",
    "predict_speedup",
    "report",
    "schedule_length_ratio",
    "schedule_problems",
    "schedules_for_sizes",
    "serial_time",
    "speedup",
    "utilization",
]

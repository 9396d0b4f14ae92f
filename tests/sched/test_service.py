"""ScheduleService: memoization, eviction, disk cache, sweeps."""

import ast
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.graph.generators import fork_join, lu_taskgraph, random_layered
from repro.machine import MachineParams, TargetMachine, make_machine
from repro.sched import (
    SCHEDULERS,
    MHScheduler,
    ScheduleRequest,
    ScheduleService,
    as_request,
    default_family,
    get_scheduler,
    resolve_scheduler,
    scheduler_cache_key,
)
from repro.sched.base import Scheduler
from repro.sched.serialize import schedule_to_json
from repro.sched.validate import check_schedule, schedule_problems

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0)


@pytest.fixture
def graph():
    return lu_taskgraph(4)


@pytest.fixture
def machine():
    return make_machine("hypercube", 4, PARAMS)


class TestResolveScheduler:
    def test_name(self):
        assert resolve_scheduler("mh").name == "mh"

    def test_instance_passthrough(self):
        s = MHScheduler()
        assert resolve_scheduler(s) is s

    def test_none_means_default(self):
        assert resolve_scheduler(None).name == "mh"
        assert resolve_scheduler(None, default="hlfet").name == "hlfet"

    def test_unknown_name(self):
        with pytest.raises(ScheduleError, match="unknown scheduler"):
            resolve_scheduler("nope")

    def test_wrong_type(self):
        with pytest.raises(ScheduleError, match="expected a scheduler"):
            resolve_scheduler(42)

    def test_every_registered_scheduler_implements_the_interface(self):
        with pytest.raises(TypeError):
            Scheduler()
        for name in SCHEDULERS:
            assert type(get_scheduler(name)).schedule is not Scheduler.schedule, name

    def test_a_scheduler_and_a_service_show_what_they_are(self, graph, machine):
        assert repr(MHScheduler()) == "MHScheduler()"
        svc = ScheduleService(max_entries=2)
        svc.schedule(graph, machine, "mh")
        assert repr(svc) == "ScheduleService(entries=1/2, disk=off)"


class TestSchedulerCacheKey:
    def test_two_instances_share_key(self):
        assert scheduler_cache_key(MHScheduler()) == scheduler_cache_key(MHScheduler())

    def test_configuration_separates_keys(self):
        assert scheduler_cache_key(MHScheduler()) != scheduler_cache_key(
            MHScheduler(contention=False)
        )

    def test_inner_scheduler_is_part_of_the_key(self):
        a = get_scheduler("grain")
        b = get_scheduler("grain")
        assert scheduler_cache_key(a) == scheduler_cache_key(b)


class TestAsRequest:
    def test_none(self):
        assert as_request() == ScheduleRequest()

    def test_name_and_instance(self):
        assert as_request("hlfet").scheduler == "hlfet"
        s = MHScheduler()
        assert as_request(s).scheduler is s

    def test_sequence_is_proc_counts(self):
        assert as_request((2, 4)).proc_counts == (2, 4)
        assert as_request([1, 2, 8]).proc_counts == (1, 2, 8)

    def test_request_passthrough_with_overrides(self):
        req = ScheduleRequest(scheduler="dsh", family="mesh")
        same = as_request(req)
        assert same == req
        widened = as_request(req, proc_counts=(2, 4))
        assert widened.scheduler == "dsh" and widened.proc_counts == (2, 4)

    def test_none_overrides_ignored(self):
        req = as_request("mh", family=None, proc_counts=None)
        assert req.family is None and req.proc_counts is None

    def test_rejects_garbage(self):
        with pytest.raises(ScheduleError, match="ScheduleRequest"):
            as_request(3.14)


class TestDefaultFamily:
    def test_named_family(self):
        assert default_family(make_machine("mesh", 9)) == "mesh"

    def test_custom_falls_back(self):
        from repro.machine.topology import CustomTopology

        machine = TargetMachine(CustomTopology(2, [(0, 1)]))
        assert default_family(machine) == "hypercube"


def same_document(a, b) -> bool:
    return schedule_to_json(a) == schedule_to_json(b)


class TestMemoization:
    def test_hit_returns_equal_schedule(self, graph, machine):
        svc = ScheduleService()
        first = svc.schedule(graph, machine, "mh")
        second = svc.schedule(graph, machine, "mh")
        assert same_document(first, second)
        assert second.graph is graph and second.machine is machine
        stats = svc.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_equivalent_scheduler_instances_hit(self, graph, machine):
        svc = ScheduleService()
        first = svc.schedule(graph, machine, MHScheduler())
        second = svc.schedule(graph, machine, MHScheduler())
        assert same_document(first, second)
        assert (svc.stats().hits, svc.stats().misses) == (1, 1)

    def test_different_scheduler_misses(self, graph, machine):
        svc = ScheduleService()
        mh = svc.schedule(graph, machine, "mh")
        hlfet = svc.schedule(graph, machine, "hlfet")
        assert (svc.stats().hits, svc.stats().misses) == (0, 2)
        assert (mh.scheduler, hlfet.scheduler) == ("mh", "hlfet")

    def test_graph_mutation_misses(self, graph, machine):
        svc = ScheduleService()
        first = svc.schedule(graph, machine, "mh")
        graph.set_work(graph.task_names[0], 99.0)
        second = svc.schedule(graph, machine, "mh")
        assert (svc.stats().hits, svc.stats().misses) == (0, 2)
        assert not same_document(first, second)

    def test_hit_is_built_over_the_callers_graph(self):
        """A graph edited in place after its schedule was cached must not
        leak into a hit for an unedited copy."""
        svc = ScheduleService()
        graph = random_layered(30, 5, seed=1)
        pristine = graph.copy()
        machine = make_machine("hypercube", 4, PARAMS)
        svc.schedule(graph, machine, "mh")
        graph.set_work("r0", graph.work("r0") * 50)
        hit = svc.schedule(pristine, machine, "mh")
        assert svc.stats().hits == 1
        assert hit.graph is pristine and hit.machine is machine
        assert schedule_problems(hit) == []

    def test_hit_is_built_over_the_callers_machine(self, graph):
        svc = ScheduleService()
        edited = make_machine("ring", 6, PARAMS)
        svc.schedule(graph, edited, "mh")
        edited.topology.add_link(0, 3)
        ring = make_machine("ring", 6, PARAMS)
        hit = svc.schedule(graph, ring, "mh")
        assert svc.stats().hits == 1
        assert hit.machine is ring and hit.graph is graph
        assert schedule_problems(hit) == []

    def test_numpy_numbers_are_cached(self, machine):
        """A work or edge size that is a numpy scalar is stored as the plain
        number it prints as; the miss and the hit give one document."""
        graph = random_layered(12, 3, edge_prob=0.5, seed=2)
        graph.set_work("r0", np.float64(2.5))
        graph.add_edge("r0", graph.task_names[-1], "v", size=np.float64(3.0))
        svc = ScheduleService()
        miss = svc.schedule(graph, machine, "mh")
        hit = svc.schedule(graph.copy(), machine, "mh")
        assert (svc.stats().hits, svc.stats().misses) == (1, 1)
        assert same_document(miss, hit)
        assert schedule_problems(hit) == []

    def test_lru_eviction(self, graph):
        svc = ScheduleService(max_entries=2)
        for n in (2, 4, 8):
            svc.schedule(graph, make_machine("hypercube", n, PARAMS), "mh")
        assert len(svc) == 2
        assert svc.stats().evictions == 1
        # the oldest machine was evicted -> a fresh miss
        svc.schedule(graph, make_machine("hypercube", 2, PARAMS), "mh")
        assert svc.stats().misses == 4

    def test_invalidate_by_graph(self, graph, machine):
        svc = ScheduleService()
        svc.schedule(graph, machine, "mh")
        other = fork_join(4)
        svc.schedule(other, machine, "mh")
        assert svc.invalidate(graph_hash=graph.content_hash()) == 1
        assert len(svc) == 1

    def test_invalidate_by_machine(self, graph, machine):
        svc = ScheduleService()
        svc.schedule(graph, machine, "mh")
        svc.schedule(graph, make_machine("hypercube", 8, PARAMS), "mh")
        assert svc.invalidate(machine_hash=machine.content_hash()) == 1
        assert len(svc) == 1

    def test_clear(self, graph, machine):
        svc = ScheduleService()
        svc.schedule(graph, machine, "mh")
        svc.clear()
        assert len(svc) == 0

    def test_bad_max_entries(self):
        with pytest.raises(ScheduleError, match="max_entries"):
            ScheduleService(max_entries=0)


class TestDiskCache:
    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BANGER_CACHE_DIR", raising=False)
        assert ScheduleService().disk_dir is None

    def test_env_var_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BANGER_CACHE_DIR", str(tmp_path))
        svc = ScheduleService()
        assert svc.disk_dir is not None and svc.disk_dir.parent == tmp_path

    def test_round_trip_across_services(self, tmp_path, graph, machine):
        first = ScheduleService(disk_cache=tmp_path)
        original = first.schedule(graph, machine, "mh")
        assert first.stats().disk_writes == 1

        fresh = ScheduleService(disk_cache=tmp_path)
        loaded = fresh.schedule(graph, machine, "mh")
        assert fresh.stats().disk_hits == 1
        assert schedule_to_json(loaded) == schedule_to_json(original)
        check_schedule(loaded)

    def test_corrupt_entry_is_evicted_not_raised(self, tmp_path, graph, machine):
        svc = ScheduleService(disk_cache=tmp_path)
        svc.schedule(graph, machine, "mh")
        (entry,) = [p for p in svc.disk_dir.iterdir() if p.suffix == ".json"]
        entry.write_text("{ not json !", encoding="utf-8")

        fresh = ScheduleService(disk_cache=tmp_path)
        recovered = fresh.schedule(graph, machine, "mh")
        check_schedule(recovered)
        assert fresh.stats().disk_evictions == 1
        # the corrupt file was removed, then rewritten by the recompute
        doc = json.loads(entry.read_text(encoding="utf-8"))
        assert doc["schedule"]["type"] == "schedule"

    def test_key_mismatch_is_eviction(self, tmp_path, graph, machine):
        svc = ScheduleService(disk_cache=tmp_path)
        svc.schedule(graph, machine, "mh")
        (entry,) = [p for p in svc.disk_dir.iterdir() if p.suffix == ".json"]
        doc = json.loads(entry.read_text(encoding="utf-8"))
        doc["key"] = ["x", "y", "z"]
        entry.write_text(json.dumps(doc), encoding="utf-8")

        fresh = ScheduleService(disk_cache=tmp_path)
        check_schedule(fresh.schedule(graph, machine, "mh"))
        assert fresh.stats().disk_evictions == 1

    def test_unwritable_directory_is_tolerated(self, tmp_path, graph, machine):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory", encoding="utf-8")
        svc = ScheduleService(disk_cache=target)
        check_schedule(svc.schedule(graph, machine, "mh"))
        assert svc.stats().disk_writes == 0


class TestSweeps:
    def test_result_order_follows_proc_counts(self, graph):
        svc = ScheduleService()
        out = svc.schedules_for_sizes(graph, (8, 2, 4), params=PARAMS)
        assert list(out) == [8, 2, 4]
        for n, s in out.items():
            assert s.n_procs == n

    def test_sweep_uses_cache(self, graph):
        svc = ScheduleService()
        svc.schedules_for_sizes(graph, (2, 4), params=PARAMS)
        svc.schedules_for_sizes(graph, (2, 4, 8), params=PARAMS)
        stats = svc.stats()
        assert stats.hits == 2 and stats.misses == 3

    def test_predict_speedup_matches_functional_api(self, graph):
        from repro.sched.sweeps import predict_speedup

        svc = ScheduleService()
        a = svc.predict_speedup(graph, (1, 2, 4), params=PARAMS)
        b = predict_speedup(graph, (1, 2, 4), params=PARAMS, service=ScheduleService())
        assert a == b

    def test_compare_schedulers(self, graph, machine):
        svc = ScheduleService()
        out = svc.compare_schedulers(graph, machine, ["mh", "hlfet", "serial"])
        assert sorted(out) == ["hlfet", "mh", "serial"]
        for schedule in out.values():
            check_schedule(schedule)

    def test_batch_hashes_each_distinct_graph_once(self, graph, machine, monkeypatch):
        from repro.graph.taskgraph import TaskGraph

        calls = []
        real = TaskGraph.content_hash
        monkeypatch.setattr(
            TaskGraph, "content_hash", lambda self: calls.append(1) or real(self)
        )
        svc = ScheduleService()
        sweep = svc.schedules_for_sizes(graph, (2, 4, 8, 16), params=PARAMS)
        assert len(calls) == 1
        compared = svc.compare_schedulers(graph, machine, ["mh", "hlfet", "serial"])
        assert len(calls) == 2
        # same keys (mh on the 4-processor machine is shared by both calls),
        # same answers as asking one at a time
        assert len(svc) == 6 and {key[0] for key in svc._lru.keys()} == {real(graph)}
        for n, schedule in sweep.items():
            alone = ScheduleService().schedule(graph, schedule.machine, "mh")
            assert (n, schedule_to_json(schedule)) == (n, schedule_to_json(alone))
        assert schedule_to_json(compared["hlfet"]) == schedule_to_json(
            get_scheduler("hlfet").schedule(graph, machine)
        )

    def test_sweep_stats_recorded(self, graph):
        svc = ScheduleService()
        svc.schedules_for_sizes(graph, (2, 4), params=PARAMS)
        stats = svc.stats()
        assert stats.sweeps == 1
        assert stats.last_sweep_seconds > 0

    def test_stats_render_mentions_everything(self, graph):
        svc = ScheduleService()
        svc.schedules_for_sizes(graph, (2, 4), params=PARAMS)
        text = svc.stats().render()
        for word in ("hit", "miss", "eviction", "sweep", "kernel"):
            assert word in text
        doc = svc.stats().as_dict()
        assert {"hits", "misses", "evictions", "sweeps", "last_sweep_seconds"} <= set(doc)


class TestParallelExecution:
    """Sweeps run where they are called; the parallelism left at this tier
    is the callers' — many threads may share one service."""

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_parallel_equals_serial_for_every_scheduler(self, name):
        """Every registry scheduler through the batch path, swept by four
        threads sharing one service: byte-identical to asking a fresh
        service for each size alone, and no sweep goes uncounted."""
        graph = random_layered(6, 2, seed=3) if name == "exhaustive" else fork_join(6, work=3, comm=0.5)
        svc = ScheduleService()
        with ThreadPoolExecutor(max_workers=4) as threads:
            sweeps = list(threads.map(
                lambda _: svc.schedules_for_sizes(
                    graph, (2, 4), scheduler=name, params=PARAMS
                ),
                range(4),
            ))
        for n, schedule in sweeps[0].items():
            alone = schedule_to_json(ScheduleService().schedule(graph, schedule.machine, name))
            for sweep in sweeps:
                assert (n, schedule_to_json(sweep[n])) == (n, alone)
        assert svc.stats().sweeps == 4 and len(svc) == 2


def test_sweeps_stay_in_one_process():
    """No module under ``sched/`` or ``env/`` can fork or ship work: sweep
    parallelism lives in the daemon's worker pool, one tier up."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    banned = {"concurrent", "multiprocessing", "pickle"}
    for path in sorted([*(src / "sched").rglob("*.py"), *(src / "env").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, f"{path}:{node.lineno}"

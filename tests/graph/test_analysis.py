"""Tests for DAG analyses (levels, critical path, parallelism profile)."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    TaskGraph,
    asap_schedule_times,
    average_parallelism,
    b_levels,
    communication_to_computation_ratio,
    critical_path,
    critical_path_length,
    level_widths,
    max_width,
    precedence_levels,
    static_levels,
    t_levels,
)
from repro.graph.generators import chain, fork_join


@pytest.fixture
def dag():
    r"""      a(2)
             /    \
         x=1      y=3
           /        \
        b(4)        c(1)
           \        /
         u=2      v=1
             \    /
              d(5)
    """
    tg = TaskGraph("dag")
    tg.add_task("a", work=2)
    tg.add_task("b", work=4)
    tg.add_task("c", work=1)
    tg.add_task("d", work=5)
    tg.add_edge("a", "b", var="x", size=1)
    tg.add_edge("a", "c", var="y", size=3)
    tg.add_edge("b", "d", var="u", size=2)
    tg.add_edge("c", "d", var="v", size=1)
    return tg


class TestLevels:
    def test_t_levels_with_comm(self, dag):
        tl = t_levels(dag)
        assert tl["a"] == 0
        assert tl["b"] == 2 + 1
        assert tl["c"] == 2 + 3
        assert tl["d"] == max(3 + 4 + 2, 5 + 1 + 1)  # == 9

    def test_b_levels_with_comm(self, dag):
        bl = b_levels(dag)
        assert bl["d"] == 5
        assert bl["b"] == 4 + 2 + 5
        assert bl["c"] == 1 + 1 + 5
        assert bl["a"] == 2 + max(1 + 11, 3 + 7)  # == 14

    def test_static_levels_ignore_comm(self, dag):
        sl = static_levels(dag)
        assert sl["a"] == 2 + max(4, 1) + 5
        assert sl["d"] == 5

    def test_custom_exec_time(self, dag):
        sl = static_levels(dag, exec_time=lambda t: 1.0)
        assert sl["a"] == 3.0

    def test_some_levels_over_known_ones(self, dag):
        """Levels of a set closed under successors, or of one whose other
        successors' levels are known, are the whole pass's."""
        whole = b_levels(dag)
        assert b_levels(dag, tasks={"b", "c", "d"}) == {t: whole[t] for t in "bcd"}
        known = {"b": 99.0, "d": whole["d"]}
        assert b_levels(dag, tasks={"a", "c"}, known=known) == {
            **known, "a": 2 + max(1 + 99, 3 + whole["c"]), "c": whole["c"]}
        with pytest.raises(GraphError):
            b_levels(dag, tasks={"a", "c"}, known={"b": 1.0})

    def test_chain_levels(self):
        tg = chain(4, work=2, comm=1)
        tl = t_levels(tg)
        assert tl["t3"] == 3 * (2 + 1)
        bl = b_levels(tg)
        assert bl["t0"] == 4 * 2 + 3 * 1


class TestCriticalPath:
    def test_cp_includes_comm(self, dag):
        length, path = critical_path(dag)
        assert length == 14
        assert path == ["a", "b", "d"]

    def test_cp_zero_comm(self, dag):
        length, path = critical_path(dag, comm_cost=lambda e: 0.0)
        assert length == 2 + 4 + 5
        assert path == ["a", "b", "d"]

    def test_cp_empty_graph(self):
        assert critical_path(TaskGraph()) == (0.0, [])

    def test_cp_single_task(self):
        tg = TaskGraph()
        tg.add_task("only", work=7)
        assert critical_path(tg) == (7.0, ["only"])

    def test_cp_length_helper(self, dag):
        assert critical_path_length(dag) == 14


class TestParallelismProfile:
    def test_precedence_levels(self, dag):
        lvl = precedence_levels(dag)
        assert lvl == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_level_widths_and_max(self, dag):
        assert level_widths(dag) == {0: 1, 1: 2, 2: 1}
        assert max_width(dag) == 2

    def test_average_parallelism_chain_is_one(self):
        assert average_parallelism(chain(5)) == pytest.approx(1.0)

    def test_average_parallelism_fork_join(self):
        tg = fork_join(8, work=1, comm=0)
        # total work = 10, cp = 3
        assert average_parallelism(tg) == pytest.approx(10 / 3)

    def test_empty_graph_parallelism(self):
        assert average_parallelism(TaskGraph()) == 0.0


class TestCCR:
    def test_ccr_balanced(self):
        tg = fork_join(4, work=2.0, comm=2.0)
        assert communication_to_computation_ratio(tg) == pytest.approx(1.0)

    def test_ccr_no_edges(self):
        tg = TaskGraph()
        tg.add_task("a")
        assert communication_to_computation_ratio(tg) == 0.0

    def test_ccr_zero_work(self):
        tg = TaskGraph()
        tg.add_task("a", work=0)
        tg.add_task("b", work=0)
        tg.add_edge("a", "b", size=5)
        assert communication_to_computation_ratio(tg) == float("inf")


class TestAsap:
    def test_asap_matches_t_levels(self, dag):
        times = asap_schedule_times(dag)
        assert times["a"] == (0, 2)
        assert times["d"] == (9, 14)

    def test_asap_respects_custom_costs(self, dag):
        times = asap_schedule_times(dag, comm_cost=lambda e: 0.0)
        assert times["d"][0] == 6  # 2 + 4

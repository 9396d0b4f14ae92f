"""Tests for the incremental analysis cache."""

import threading

from repro.analysis.cache import (
    AnalysisCache,
    cached_plan_diagnostics,
    plan_key,
    shared_cache,
)
from repro.calc.analyze import analyze


class TestAnalysisCache:
    def test_get_or_compute_memoizes(self):
        cache = AnalysisCache()
        calls = []
        for _ in range(3):
            v = cache.get_or_compute("k", lambda: calls.append(1) or "result")
            assert v == "result"
        assert len(calls) == 1
        assert cache.stats() == {"entries": 1, "hits": 2, "misses": 1}

    def test_lru_eviction(self):
        cache = AnalysisCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert len(cache) == 2
        calls = []
        cache.get_or_compute("b", lambda: calls.append(1) or 2)
        assert calls, "b should have been evicted"

    def test_clear_resets_counters(self):
        cache = AnalysisCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_thread_safety_smoke(self):
        cache = AnalysisCache(maxsize=8)
        errors = []

        def hammer(i):
            try:
                for k in range(50):
                    cache.get_or_compute(f"k{k % 12}", lambda: k)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8


class TestKeys:
    def test_program_key_is_content_addressed(self):
        # the key is the text itself: an equal text built elsewhere finds
        # the entry, a different text does not
        table = shared_cache()
        table.clear()
        analyze("output y\ny := 1")
        misses = table.stats()["misses"]
        analyze("output y\n" + "y := %d" % 1)
        assert table.stats()["misses"] == misses
        analyze("output y\ny := 2")
        assert table.stats()["misses"] > misses

    def test_plan_key_tracks_op_order(self):
        from repro.codegen.ir import ComputeStep, SendOp

        def plan(sends):
            return {0: (ComputeStep(task="a", proc=0, start=0.0, sends=tuple(sends)),)}

        s1, s2 = SendOp("a", "b", "x", 1), SendOp("a", "c", "y", 1)
        assert plan_key(plan([s1, s2])) != plan_key(plan([s2, s1]))
        assert plan_key(plan([s1])) == plan_key(plan([s1]))


class TestCachedEntryPoints:
    def test_program_diagnostics_hit(self):
        table = shared_cache()
        table.clear()
        src = "output y\nlocal d\nd := 0\ny := 1 / d"
        d1 = analyze(src)
        cold = table.stats()
        d2 = analyze(src)
        assert d1 == d2 and d1 is not d2  # each caller owns its list
        assert any(d.rule == "PITS101" for d in d1)
        warm = table.stats()
        assert (warm["hits"], warm["misses"]) == (cold["hits"] + 1, cold["misses"])

    def test_cached_plan_diagnostics_hits(self):
        from repro.codegen.ir import ComputeStep, RecvOp

        cache = AnalysisCache()
        plan = {
            1: (ComputeStep(task="b", proc=1, start=0.0, recvs=(RecvOp("a", "x", 0),)),)
        }
        d1 = cached_plan_diagnostics(plan, cache)
        d2 = cached_plan_diagnostics(plan, cache)
        assert d1 is d2
        assert [d.rule_id for d in d1] == ["CG502"]

    def test_shared_cache_is_a_singleton(self):
        assert shared_cache() is shared_cache()

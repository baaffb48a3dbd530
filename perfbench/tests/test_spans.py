"""Span bookkeeping: nesting, self time, wrapping and restoring."""
import statistics
import threading
import types

import pytest

from run import quantile
from spans import Tracer


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_direct_children():
    tracer = Tracer(clock=_clock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 7.0, 10.0]))
    outer = tracer.begin("outer")  # 0
    a = tracer.begin("a")  # 1
    tracer.finish(a)  # 3
    b = tracer.begin("b")  # 4
    c = tracer.begin("c")  # 4.5
    tracer.finish(c)  # 5
    tracer.finish(b)  # 7
    tracer.finish(outer)  # 10
    assert (a.self_time, b.self_time, c.self_time) == (2.0, 2.5, 0.5)
    assert outer.duration == 10.0 and outer.self_time == 5.0
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "self": 5.0}
    assert sum(t["self"] for t in totals.values()) == outer.duration
    assert tracer.roots("outer") == [outer]
    assert {s.name for s in tracer.descendants([b])} == {"b", "c"}


def test_roots_skip_recursive_calls():
    tracer = Tracer(clock=_clock(range(10)))
    top = tracer.begin("f")
    inner = tracer.begin("f")
    tracer.finish(inner)
    tracer.finish(top)
    assert tracer.roots("f") == [top]


def test_wrap_nests_through_module_and_class_lookups_and_restores():
    mod = types.SimpleNamespace()

    class Box:
        def area(self, w):
            return mod.leaf(w) * 2

    mod.leaf = lambda w: w + 1
    original_leaf, original_area = mod.leaf, Box.__dict__["area"]
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "mod.leaf")
    tracer.wrap(Box, "area", "Box.area", label=lambda args: f".w{args[1]}")
    assert Box().area(3) == 8
    names = {s.name: s for s in tracer.spans}
    assert set(names) == {"mod.leaf", "Box.area.w3"}
    assert names["mod.leaf"].parent is names["Box.area.w3"]
    tracer.restore()
    assert mod.leaf is original_leaf and Box.__dict__["area"] is original_area


def test_span_closes_when_the_call_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(mod, "boom", "mod.boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["mod.boom"] and tracer._stack() == []


def test_threads_keep_separate_stacks():
    mod = types.SimpleNamespace()
    barrier = threading.Barrier(2, timeout=10)

    def outer():
        barrier.wait()
        return mod.inner()

    mod.outer, mod.inner = outer, lambda: barrier.wait()
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner")
    threads = [threading.Thread(target=mod.outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    tracer.restore()
    assert not any(t.is_alive() for t in threads)
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2 and all(s.parent.name == "outer" for s in inners)
    assert len({id(s.parent) for s in inners}) == 2


def test_grouped_quantile_matches_the_stdlib_median():
    xs = [11.5, 11.6, 11.6, 11.7, 11.6, 11.8, 12.0, 11.4]
    assert quantile(xs, 0.5, 0.1) == pytest.approx(statistics.median_grouped(xs, interval=0.1))
    assert 11.7 <= quantile(xs, 0.9, 0.1) <= 12.05
    assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

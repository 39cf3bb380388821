"""Arithmetic of the benchmark harness: span self time, medians and rates."""

import pytest

from spans import Tracer, p50, rate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = tr.open("outer")
    clock.now = 1.0
    mid = tr.open("mid")
    clock.now = 2.0
    inner = tr.open("inner")
    clock.now = 5.0
    tr.close(inner)
    clock.now = 6.0
    tr.close(mid)
    clock.now = 10.0
    tr.close(outer, {"iterations": 7})
    assert tr.totals("inner")["self_s"] == 3.0
    assert tr.totals("mid")["self_s"] == 2.0  # 5 s long, 3 s of it inside "inner"
    assert tr.totals("outer")["self_s"] == 5.0  # 10 s long, 5 s of it inside "mid"
    assert tr.totals("outer")["duration_s"] == 10.0
    assert tr.totals("outer")["iterations"] == 7
    assert [s["parent"] for s in tr.spans] == [mid["id"], outer["id"], None]


def test_folded_calls_count_as_child_time():
    clock = FakeClock()
    tr = Tracer(clock)
    span = tr.open("fit")
    tr.fold("table", 0.25, {"orders": 10})
    tr.fold("table", 0.5, {"orders": 30})
    clock.now = 2.0
    tr.close(span)
    table = tr.totals("table")
    assert (table["calls"], table["orders"], table["self_s"]) == (2, 40, 0.75)
    assert tr.totals("fit")["self_s"] == 1.25
    assert tr.spans[0]["folded"]["table"]["calls"] == 2


def test_child_calls_counts_direct_children_of_one_name():
    tr = Tracer(FakeClock())
    for parent in ("direct", "em"):
        span = tr.open(parent)
        for _ in range(3 if parent == "direct" else 2):
            tr.close(tr.open("loglik"))
        tr.close(span)
    assert tr.child_calls("direct", "loglik") == 3
    assert tr.child_calls("em", "loglik") == 2


def test_close_out_of_order_is_refused():
    tr = Tracer(FakeClock())
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_p50_odd_and_even():
    assert p50([3.0, 1.0, 2.0]) == 2.0
    assert p50([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        p50([])


def test_rate():
    assert rate(30, 1.5) == 20.0
    with pytest.raises(ValueError):
        rate(3, 0.0)

"""Self-time arithmetic and name restoring of the benchmark's tracer."""

import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Tracer, layer_times, self_times, union_length


def span(sid, name, start, end, parent=None, thread=1, counted_s=0.0):
    return Span(sid, name, start, end, parent, thread, 0, counted_s)


def test_union_length_merges_overlaps():
    assert union_length([(3, 6), (1, 4), (8, 9)]) == 6
    assert union_length([]) == 0


def test_self_time_of_nested_spans():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "exper.run", 1.0, 4.0, parent=0, counted_s=0.5),
        span(2, "approx.cdf", 3.0, 6.0, parent=0),
        span(3, "approx.cdf", 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)  # children cover [1, 6]
    assert selfs[1] == pytest.approx(1.5)  # 3 s minus a 1 s child and 0.5 s counted
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    times = layer_times(spans)
    assert times["cli.self_s"] == pytest.approx(5.0)
    assert times["approx.busy_s"] == pytest.approx(4.0)
    assert times["approx.self_s"] == pytest.approx(4.0)


def test_self_time_with_children_on_two_threads():
    spans = [
        span(0, "exper.run", 0.0, 10.0, thread=1),
        span(1, "exper.chunk", 2.0, 7.0, parent=0, thread=2, counted_s=3.0),
        span(2, "exper.chunk", 4.0, 9.0, parent=0, thread=3, counted_s=1.0),
    ]
    selfs = self_times(spans)
    # The two chunks overlap, so they cover [2, 9] of the parent, not 10 s.
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(4.0)
    times = layer_times(spans)
    # Chunks nest inside the run span, so busy time counts the run once.
    assert times["exper.busy_s"] == pytest.approx(10.0)
    assert times["exper.self_s"] == pytest.approx(9.0)


@pytest.fixture
def fakepkg():
    """A package whose 'high' module imports 'low.leaf' by name."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def leaf(x):
        time.sleep(0.02)
        return x

    def run(n):
        with high.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(high.leaf, range(n)))

    low.leaf = leaf
    high.leaf = leaf
    high.run = run
    high.ThreadPoolExecutor = ThreadPoolExecutor
    mods = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(mods)
    yield types.SimpleNamespace(low=low, high=high, leaf=leaf, run=run)
    for key in mods:
        sys.modules.pop(key, None)


def test_wrapped_names_are_restored(fakepkg):
    tracer = Tracer()
    tracer.wrap("fakepkg", "low", "leaf", counted=True)
    tracer.wrap("fakepkg", "high", "run")
    tracer.wrap_pool("fakepkg", "high", "ThreadPoolExecutor", "high.chunk")
    assert fakepkg.low.leaf is not fakepkg.leaf
    assert fakepkg.high.leaf is fakepkg.low.leaf  # the imported name is wrapped too
    assert fakepkg.high.ThreadPoolExecutor is not ThreadPoolExecutor
    tracer.restore()
    assert fakepkg.low.leaf is fakepkg.leaf
    assert fakepkg.high.leaf is fakepkg.leaf
    assert fakepkg.high.run is fakepkg.run
    assert fakepkg.high.ThreadPoolExecutor is ThreadPoolExecutor


def test_pool_tasks_are_children_of_the_caller(fakepkg):
    tracer = Tracer()
    tracer.wrap("fakepkg", "low", "leaf", counted=True)
    tracer.wrap("fakepkg", "high", "run")
    tracer.wrap_pool("fakepkg", "high", "ThreadPoolExecutor", "high.chunk")
    try:
        assert fakepkg.high.run(4) == [0, 1, 2, 3]
    finally:
        tracer.restore()
    (root,) = [s for s in tracer.spans if s.name == "high.run"]
    chunks = [s for s in tracer.spans if s.name == "high.chunk"]
    assert len(chunks) == 4
    assert {s.parent for s in chunks} == {root.id}
    assert all(s.thread != threading.get_ident() for s in chunks)
    tally = tracer.tallies()
    assert tally["low.leaf.calls"] == 4
    # Busy time sums over threads: four 20 ms calls on two workers.
    assert tally["low.leaf.busy_s"] >= 0.08
    assert tally["low.leaf.busy_s"] > root.duration
    selfs = self_times(tracer.spans)
    for s in chunks:
        assert selfs[s.id] < s.duration - 0.015  # the counted leaf is subtracted

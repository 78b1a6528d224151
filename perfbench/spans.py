"""In-memory call tracing for the benchmark's traced run.

The tracer wraps functions of an already imported package from outside: it
replaces every module attribute bound to the original function, so a name
imported with ``from .approx import normal_cdf`` is traced too, and
:meth:`Tracer.restore` puts every original back.

Two kinds of wrapped call exist:

- A *span* records name, start, end, parent span, thread id and command id.
  Spans stay in :attr:`Tracer.spans` until the caller writes them out.
- A *counted* call records no span, only its call count, busy time and work
  counts.  It is for functions called hundreds of thousands of times, where a
  span per call would cost more than the call.  Its time is subtracted from
  the self time of the span it ran in.  Counted calls must all belong to
  layers that make no spans, because a counted call nested in another one
  adds nothing to its layer's busy time.

Busy time is summed over threads.  A span's self time is its duration minus
the part of its interval covered by its child spans (on any thread) minus the
counted calls made directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

_TOP = object()


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    command: int
    counted_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# A count hook adds work counts of one finished call to its thread's tally:
# hook(tally, args, kwargs, result, seconds, depth), where ``depth[layer]`` is
# the number of open calls of ``layer`` around it on the same thread.
CountHook = Callable[[dict, tuple, dict, object, float, dict], None]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = union_length(
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if b > s.start and a < s.end
        )
        out[s.id] = max(0.0, s.duration - covered - s.counted_s)
    return out


def layer_times(spans: Iterable[Span]) -> dict[str, float]:
    """``<layer>.busy_s`` and ``<layer>.self_s`` for every span layer.

    Busy time sums the spans that have no ancestor span of the same layer, so
    nested calls inside one layer are not counted twice.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[f"{s.layer}.busy_s"] += s.duration
    return dict(out)


class _ThreadState:
    __slots__ = ("tid", "stack", "depth", "counted_depth", "tally")

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.stack: list[list] = []  # open spans: [id, parent, start, counted_s]
        self.depth: dict[str, int] = defaultdict(int)
        self.counted_depth = 0
        self.tally: dict[str, float] = defaultdict(float)


class Tracer:
    """Records spans and per-function tallies for wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.names: list[str] = []
        self.command = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def tallies(self) -> dict[str, float]:
        """Call counts, busy times and work counts merged over threads."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for st in self._states:
                for key, value in st.tally.items():
                    out[key] += value
        return dict(out)

    # -- spans --------------------------------------------------------------

    def open(self, layer: str, parent=_TOP) -> tuple[_ThreadState, list]:
        """Start a span on this thread; ``parent`` defaults to the open span."""
        st = self._state()
        if parent is _TOP:
            parent = st.stack[-1][0] if st.stack else None
        frame = [next(self._ids), parent, time.perf_counter(), 0.0]
        st.stack.append(frame)
        st.depth[layer] += 1
        return st, frame

    def close(self, st: _ThreadState, frame: list, name: str, layer: str) -> float:
        end = time.perf_counter()
        st.stack.pop()
        st.depth[layer] -= 1
        sid, parent, start, counted_s = frame
        self.spans.append(
            Span(sid, name, start, end, parent, st.tid, self.command, counted_s)
        )
        seconds = end - start
        st.tally[name + ".calls"] += 1
        st.tally[name + ".busy_s"] += seconds
        return seconds

    def current(self) -> Optional[int]:
        """Id of the innermost open span on the calling thread."""
        st = self._state()
        return st.stack[-1][0] if st.stack else None

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, count: Optional[CountHook]):
        def wrapper(*args, **kwargs):
            st, frame = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(st, frame, name, layer)
            if count is not None:
                count(st.tally, args, kwargs, result, seconds, st.depth)
            return result

        return wrapper

    def _counted_wrapper(self, fn, name: str, layer: str, count: Optional[CountHook]):
        # Kept lean: it runs once per call of functions called ~10^5 times.
        clock = time.perf_counter
        local = self._local
        state = self._state
        calls_key = name + ".calls"
        busy_key = name + ".busy_s"
        layer_key = layer + ".busy_s"

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = state()
            outer = st.counted_depth == 0
            st.counted_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                st.counted_depth -= 1
            tally = st.tally
            tally[calls_key] += 1
            tally[busy_key] += seconds
            if outer:
                # Busy time of the layer counts only calls not nested in
                # another counted call, which is already timed.
                tally[layer_key] += seconds
                if st.stack:
                    st.stack[-1][3] += seconds
            if count is not None:
                count(tally, args, kwargs, result, seconds, st.depth)
            return result

        return wrapper

    def wrap(
        self,
        package: str,
        module: str,
        func: str,
        counted: bool = False,
        count: Optional[CountHook] = None,
    ) -> None:
        """Trace ``package.module.func`` wherever the package binds it.

        The traced name is ``module.func`` and its layer is ``module``.
        """
        original = getattr(sys.modules[f"{package}.{module}"], func)
        name = f"{module}.{func}"
        make = self._counted_wrapper if counted else self._span_wrapper
        wrapper = functools.update_wrapper(make(original, name, module, count), original)
        self.names.append(name)
        self._rebind(package, original, wrapper)

    def wrap_pool(self, package: str, module: str, attr: str, name: str) -> None:
        """Run every task submitted to the executor class ``module.attr`` in a span.

        The span's parent is the span that submitted the task, so work done on
        pool threads is attributed to the caller that waits for it.
        """
        base = getattr(sys.modules[f"{package}.{module}"], attr)
        tracer = self
        layer = name.split(".", 1)[0]

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    st, frame = tracer.open(layer, parent=parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer.close(st, frame, name, layer)

                return super().submit(task, *args, **kwargs)

        self.names.append(name)
        self._rebind(package, base, TracedPool)

    def _rebind(self, package: str, original: object, replacement: object) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def restore(self) -> None:
        """Put back every name replaced by :meth:`wrap` or :meth:`wrap_pool`."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

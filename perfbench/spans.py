"""In-memory spans for the traced run, and per-layer times derived from them.

A Tracer rebinds public functions at the names their callers look up
(module globals and class attributes) to wrappers that record one span
per call: name, start, end, parent span and run id. Each thread keeps
its own columnar span log and parent stack, so a thread pool needs no
lock. A span opened on a thread with an empty stack takes as parent the
innermost open span of the thread that installed the tracer, which is
what a worker of a pool started by that thread is working for.

Self time is a span's duration minus the part of its interval that its
children cover; children on several threads may overlap, so the covered
part is the length of the union of their intervals.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_SLOT_SHIFT = 40
_INDEX_MASK = (1 << _SLOT_SHIFT) - 1
NO_PARENT = -1


class _ThreadLog:
    """Spans opened on one thread, as parallel arrays, plus its open stack."""

    def __init__(self, slot: int):
        self.slot = slot
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack: list[int] = []
        self.run_id = NO_PARENT
        self.extras: list[tuple[int, tuple]] = []


@dataclass(frozen=True)
class SpanArrays:
    """All spans of a trace; parent holds the parent's row index or -1."""

    names: tuple[str, ...]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    run: np.ndarray


@dataclass(frozen=True)
class LayerStat:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Records spans of wrapped callables while installed.

    run_name marks the span that starts a run: it and every span below it
    on its thread carry that span's id as run id.
    """

    def __init__(self, run_name: "str | None" = None):
        self.names: list[str] = []
        self._run_name = run_name
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: "_ThreadLog | None" = None
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, fn, name: str, extra=None):
        """Return fn wrapped to record a span named name.

        extra(args, kwargs, result), when given, returns a tuple of counts
        taken at the boundary; extra_totals() sums them per span name.
        """
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        starts_run = name == self._run_name
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            index = len(log.name)
            sid = (log.slot << _SLOT_SHIFT) | index
            if log.stack:
                parent = log.stack[-1]
            else:
                home = self._home
                parent = home.stack[-1] if home is not None and home is not log and home.stack else NO_PARENT
            outer_run = log.run_id
            if starts_run:
                log.run_id = sid
            log.name.append(name_idx)
            log.parent.append(parent)
            log.run.append(log.run_id)
            log.end.append(0.0)
            log.stack.append(sid)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[index] = clock()
                log.stack.pop()
                log.run_id = outer_run
            if extra is not None:
                log.extras.append((name_idx, extra(args, kwargs, result)))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        """Schedule owner.attr to be replaced by a recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, self._wrap(original, name, extra)))

    @contextmanager
    def installed(self):
        """Rebind every patched name to its wrapper for the block's duration."""
        self._home = self._log()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._home = None

    # -- analysis --------------------------------------------------------

    def spans(self) -> SpanArrays:
        """Every span recorded so far, with parents resolved to row indices."""
        offsets = np.cumsum([0] + [len(log.name) for log in self._logs])

        def cat(attr, dtype):
            parts = [np.frombuffer(getattr(log, attr), dtype=dtype) for log in self._logs]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        raw_parent = cat("parent", np.int64)
        parent = np.full(raw_parent.shape, NO_PARENT, dtype=np.int64)
        has = raw_parent != NO_PARENT
        parent[has] = offsets[raw_parent[has] >> _SLOT_SHIFT] + (raw_parent[has] & _INDEX_MASK)
        return SpanArrays(
            tuple(self.names),
            cat("name", np.int32),
            cat("start", np.float64),
            cat("end", np.float64),
            parent,
            cat("run", np.int64),
        )

    def extra_totals(self) -> dict[str, np.ndarray]:
        """Element-wise sums of the extra counts, per span name."""
        totals: dict[str, np.ndarray] = {}
        for log in self._logs:
            for name_idx, counts in log.extras:
                name = self.names[name_idx]
                totals[name] = totals.get(name, 0) + np.asarray(counts, dtype=np.float64)
        return totals


def _union_per_group(group: np.ndarray, start: np.ndarray, end: np.ndarray, size: int) -> np.ndarray:
    """Length of the union of the intervals in each group (group ids in [0, size))."""
    if group.size == 0:
        return np.zeros(size)
    # Sort by (group, start) and shift each group by a stride longer than
    # all intervals, so one running maximum of end times never carries
    # from one group into the next.
    origin = float(start.min())
    stride = float(end.max()) - origin + 1.0
    order = np.lexsort((start, group))
    g = group[order]
    s = start[order] - origin + g * stride
    e = end[order] - origin + g * stride
    reach = np.maximum.accumulate(e)
    before = np.concatenate(([-np.inf], reach[:-1]))
    new = np.maximum(e - np.maximum(s, before), 0.0)
    return np.bincount(g, weights=new, minlength=size)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval. parent[i] is
    the row of span i's parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    cs = np.maximum(start[child], start[p])
    ce = np.maximum(np.minimum(end[child], end[p]), cs)
    return (end - start) - _union_per_group(p, cs, ce, start.size)


def busy_time(start, end) -> float:
    """Time inside at least one span: spans that overlap, on any thread, count once."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    return float(_union_per_group(np.zeros(start.size, dtype=np.int64), start, end, 1)[0])


def layer_stats(spans: SpanArrays) -> dict[str, LayerStat]:
    """Calls, summed duration and summed self time per span name."""
    own = self_times(spans.start, spans.end, spans.parent)
    k = len(spans.names)
    calls = np.bincount(spans.name, minlength=k)
    total = np.bincount(spans.name, weights=spans.end - spans.start, minlength=k)
    self_total = np.bincount(spans.name, weights=own, minlength=k)
    return {
        name: LayerStat(int(calls[i]), float(total[i]), float(self_total[i]))
        for i, name in enumerate(spans.names)
    }

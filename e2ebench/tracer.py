"""Outside-in tracer: spans around calls into the program's layers.

The tracer wraps entry points on instances or module attributes from
benchmark code; it edits nothing in the program.  Two kinds of span:

* a **span** is kept whole: name, start, end, parent and op id (times
  are ``perf_counter_ns``).  Solves, reduce rounds, forward passes and
  per-request calls are spans;
* a **rollup** is a span too hot to keep one by one (``propagate`` runs
  per decision).  Its calls are summed per name and per thread: count,
  total and self time.  The parent span keeps the time its rolled-up
  children covered, so parent self time stays exact.

Self time is a span's duration minus the part of it that child spans
cover (their union, clipped to the parent) minus its rolled-up children.
Parents are tracked per thread, so a layer entered from an executor
thread nests under whatever that thread had open.  Spans from async
client code, which interleave on one thread, are added with
:meth:`Tracer.record` and never become parents.

Everything stays in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter_ns


class Span:
    """One whole span; ``rolled`` is the time rolled-up children covered."""

    __slots__ = ("name", "start", "end", "parent", "op", "rolled")

    def __init__(self, name, start, end=None, parent=None, op=None, rolled=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.rolled = rolled

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> List[int]:
    """Self time (ns) of every span: duration minus child coverage."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.end - s.start)
        - covered(s.start, s.end, children.get(i, ()))
        - s.rolled
        for i, s in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder with wrap/patch helpers."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_rollups: List[Dict[str, List[int]]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            # Frames: [span index or None, rolled-up child ns].
            stack = local.stack = []
            local.op = None
            local.rollups = {}
            with self._lock:
                self._thread_rollups.append(local.rollups)
        return local

    @contextmanager
    def op(self, op_id):
        """Tag spans opened on this thread with ``op_id``."""
        local = self._state()
        previous, local.op = local.op, op_id
        try:
            yield
        finally:
            local.op = previous

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Whole span around a block on this thread."""
        local = self._state()
        stack = local.stack
        parent = stack[-1][0] if stack else None
        op = local.op
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, _clock(), parent=parent, op=op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        frame = [index, 0]
        stack.append(frame)
        try:
            yield record
        finally:
            record.end = _clock()
            record.rolled = frame[1]
            stack.pop()
            if stack and stack[-1][0] is None:
                # Under a rollup: count toward its child time.  Under a
                # whole span the parent index already links the two.
                stack[-1][1] += record.end - record.start

    def record(self, name: str, start: int, end: int, op=None) -> None:
        """Add a finished top-level span (async client code)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, op))

    def wrap(self, fn, name: str, rollup: bool = False):
        """``fn`` wrapped in a span (or a rollup) named ``name``."""
        if rollup:
            state = self._state

            def rolled(*args, **kwargs):
                local = state()
                stack = local.stack
                frame = [None, 0]
                stack.append(frame)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = _clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += took
                    agg = local.rollups.get(name)
                    if agg is None:
                        agg = local.rollups[name] = [0, 0, 0]
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame[1]

            wrapper = rolled
        else:
            span = self.span

            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

        # updated=(): a wrapped class must not copy its namespace over.
        return functools.update_wrapper(wrapper, fn, updated=())

    def patch(self, owner, attr: str, name: str, rollup: bool = False) -> None:
        """Replace ``owner.attr`` with its wrapped form."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, rollup))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`restore` undoes it for modules and
        classes (instance attributes die with their instance)."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        if isinstance(owner, (type, types.ModuleType)):
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every module or class patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def rollups(self) -> Dict[str, Tuple[int, int, int]]:
        """Per-name (calls, total ns, self ns) over all threads."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            tables = list(self._thread_rollups)
        for table in tables:
            for name, (calls, total, own) in table.items():
                agg = merged.setdefault(name, [0, 0, 0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return {name: tuple(v) for name, v in merged.items()}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name calls, total seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        own = self_times(self.spans)
        for span, self_ns in zip(self.spans, own):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (span.end - span.start) / 1e9
            row["self_s"] += self_ns / 1e9
        for name, (calls, total, self_ns) in self.rollups().items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total / 1e9
            row["self_s"] += self_ns / 1e9
        return out

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans, rollups and the summary as one JSON document."""
        payload = {
            "spans": [s.as_dict() for s in self.spans],
            "rollups": {k: list(v) for k, v in self.rollups().items()},
            "summary": self.summary(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)

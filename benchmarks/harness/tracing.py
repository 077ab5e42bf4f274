"""Span recording for the traced benchmark pass.

The program is not changed: each layer is timed from outside by
swapping its public functions for wrappers while the traced pass runs
(:meth:`Tracer.install`) and restoring them afterwards.  A wrapper
records one span ``(id, parent, name, start, end, op, task)``; the
parent comes from a context variable, which the repo's executors
already copy into pool threads, so fan-out work parents correctly.
Spans stay in memory and are written as JSONL when the pass ends.

A layer's *self time* is its span's duration minus the union of its
children's intervals.  Children of one span may overlap when they ran
in parallel threads, hence the union.  Fan-out tasks get their own span
(``task=True``) named after the layer that called ``map``: the work a
task does outside any deeper wrapped layer belongs to the caller, and
``concurrency.map`` keeps only the pool's own overhead.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

#: ``(span_id, name)`` of the innermost open span.
_SPAN: ContextVar[tuple[int, str] | None] = ContextVar("harness_span", default=None)
#: The op the current work belongs to: a measured op's index (int),
#: ``"write"``, ``"warmup"``, or ``None`` outside any op.
_OP: ContextVar[object] = ContextVar("harness_op", default=None)

#: The span name of a measured op's root (its duration is the op wall).
OP_SPAN = "op"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: object
    task: bool = False

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "op": self.op,
            "task": self.task,
        }


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent can never drive self time negative.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children[parent.span_id].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.span_id: (span.end - span.start) - union_length(children[span.span_id])
        for span in spans
    }


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        #: ``(op, seconds)`` from a ``map`` call to the start of each task.
        self.waits: list[tuple[object, float]] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name: str):
        parent = _SPAN.get()
        span_id = next(self._ids)
        token = _SPAN.set((span_id, name))
        return parent, span_id, token, time.perf_counter()

    def _close(self, opened, name: str, task: bool = False) -> None:
        parent, span_id, token, start = opened
        end = time.perf_counter()
        _SPAN.reset(token)
        self.spans.append(
            Span(span_id, parent[0] if parent else None, name, start, end, _OP.get(), task)
        )

    def _record(self, name: str, fn, args, kwargs, task: bool = False):
        opened = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(opened, name, task)

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call."""

        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return wrapper

    def wrap_map(self, name: str, fn):
        """An ``Executor.map`` recording the call, its tasks and their waits."""
        tracer = self

        def wrapper(executor, task_fn, items, *args, **kwargs):
            caller = _SPAN.get()
            task_name = caller[1] if caller else OP_SPAN
            called_at = time.perf_counter()

            def task(item):
                tracer.waits.append((_OP.get(), time.perf_counter() - called_at))
                return tracer._record(task_name, task_fn, (item,), {}, task=True)

            return tracer._record(name, fn, (executor, task, items, *args), kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record the enclosed work as one ``name`` span."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened, name)

    @contextmanager
    def op(self, op_id: object, name: str = OP_SPAN):
        """Mark the enclosed work as op ``op_id`` under a root span."""
        op_token = _OP.set(op_id)
        try:
            with self.span(name):
                yield
        finally:
            _OP.reset(op_token)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self, targets) -> None:
        """Swap every ``(owner, attribute, span name, kind)`` target.

        ``owner`` is a class, a module or a dict; ``kind`` is ``"call"``
        for a plain function or ``"map"`` for an ``Executor.map``.
        """
        for owner, attr, name, kind in targets:
            original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
            wrapped = (self.wrap_map if kind == "map" else self.wrap)(name, original)
            self._set(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            self._set(owner, attr, original)

    @staticmethod
    def _set(owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


@dataclass(frozen=True)
class Rollup:
    """Per-name totals over the spans of one class of ops."""

    self_seconds: dict[str, float]
    calls: dict[str, int]
    wall_seconds: float
    wait_seconds: float


def rollup(tracer: Tracer, selects) -> Rollup:
    """Sum self time and call counts per span name over selected ops.

    ``selects(op)`` picks the ops to include.  Task spans add self time
    to their caller's name but are not calls.  ``wall_seconds`` sums the
    root spans' durations, the denominator for layer shares.
    """
    spans = [span for span in tracer.spans if selects(span.op)]
    own = self_times(spans)
    self_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    wall = 0.0
    for span in spans:
        self_seconds[span.name] += own[span.span_id]
        if not span.task:
            calls[span.name] += 1
        if span.parent is None:
            wall += span.end - span.start
    waits = sum(seconds for op, seconds in tracer.waits if selects(op))
    return Rollup(dict(self_seconds), dict(calls), wall, waits)

"""Hierarchical spans with dual wall/virtual timing.

A :class:`Span` measures one unit of work: a pipeline phase, a fan-out
task, an API request.  Spans form trees — each span records its trace id
(shared by everything one root span caused), its own id, and its
parent's id.  Parentage is propagated through a :mod:`contextvars`
variable, so a span opened in a pipeline phase is the parent of spans
opened by tasks the phase fanned out through a worker pool: the
executors submit each task under a copy of the caller's context (see
:mod:`repro.concurrency`), and the copy carries the current span along.

Every span carries **two** timings:

- ``wall_seconds`` — real elapsed time (``time.perf_counter``), what a
  human watching the process experiences;
- ``virtual_seconds`` — simulated-clock time, what the modelled network
  charged (absent when no clock was in reach).

They answer different questions (\"is the code slow?\" vs \"is the
workload expensive?\"), and diverge by design: a parallel run shrinks
wall time while virtual time — a property of the workload, not the
schedule — stays put.

Opening and closing spans never draws randomness or advances the
simulated clock, so tracing cannot perturb the deterministic run it
observes.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from contextvars import ContextVar
from dataclasses import dataclass

from repro.obs.events import SpanEndEvent

_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> "Span | None":
    """The innermost open span in the calling context, if any."""
    return _CURRENT_SPAN.get()


class Span:
    """One timed, labelled unit of work; use as a context manager.

    Spans are produced by :meth:`Tracer.span` (or the
    :class:`~repro.obs.runtime.Observability` façade) rather than
    constructed directly.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "labels",
        "wall_start",
        "wall_end",
        "virtual_start",
        "virtual_end",
        "error",
        "exemplar",
        "_tracer",
        "_clock",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        labels: dict,
        clock=None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        #: ``(trace_id, span_id)``, built once: the exemplar of every
        #: metric observed inside this span.
        self.exemplar = (trace_id, span_id)
        self.parent_id = parent_id
        self.name = name
        self.labels = labels
        self.wall_start = 0.0
        self.wall_end: float | None = None
        self.virtual_start: float | None = None
        self.virtual_end: float | None = None
        self.error: str | None = None
        self._tracer = tracer
        self._clock = clock
        self._token = None

    def set_label(self, key: str, value: object) -> None:
        """Attach or overwrite one label."""
        self.labels[key] = value

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (up to now while still open)."""
        end = self.wall_end if self.wall_end is not None else time.perf_counter()
        return end - self.wall_start

    @property
    def virtual_seconds(self) -> float | None:
        """Simulated-clock duration, or ``None`` without a clock."""
        if self.virtual_start is None:
            return None
        end = self.virtual_end
        if end is None:
            end = self._clock.now() if self._clock is not None else None
        if end is None:
            return None
        return end - self.virtual_start

    def to_dict(self) -> dict:
        """A JSON-serialisable rendering of this span."""
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": dict(self.labels),
            "wall_seconds": self.wall_seconds,
        }
        virtual = self.virtual_seconds
        if virtual is not None:
            record["virtual_seconds"] = virtual
        if self.error is not None:
            record["error"] = self.error
        return record

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        self.wall_start = time.perf_counter()
        if self._clock is not None:
            self.virtual_start = self._clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_end = time.perf_counter()
        if self._clock is not None:
            self.virtual_end = self._clock.now()
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self._tracer._record(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id})"
        )


class _NullSpan:
    """The do-nothing span a disabled tracer hands out."""

    __slots__ = ()
    labels: dict = {}

    def set_label(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TailRetentionPolicy:
    """What makes a finished trace worth keeping in full.

    Tail-based retention decides *after* a trace completes — when its
    root span closes — whether to keep the whole span tree or evict it.
    A trace is kept when any of these hold:

    - any of its spans recorded an error and ``keep_errors`` is set;
    - the root span's duration breaches ``latency_threshold`` (measured
      on the virtual clock when ``use_virtual`` and a virtual timing is
      present, wall time otherwise);
    - something called :meth:`Tracer.mark_retain` on the trace (e.g. an
      SLO engine flagging a breaching request).

    ``pending_capacity`` bounds how many still-open traces buffer spans
    at once; the oldest pending trace is evicted on overflow, so a trace
    whose root never closes cannot leak memory.
    """

    latency_threshold: float | None = None
    keep_errors: bool = True
    use_virtual: bool = True
    pending_capacity: int = 1024

    def __post_init__(self):
        if self.pending_capacity < 1:
            raise ValueError(
                f"pending_capacity must be >= 1, got {self.pending_capacity}"
            )
        if self.latency_threshold is not None and self.latency_threshold < 0:
            raise ValueError(
                f"latency_threshold must be >= 0, got {self.latency_threshold}"
            )


class Tracer:
    """Allocates span/trace ids and keeps finished spans in a ring.

    ``events`` (an :class:`~repro.obs.events.EventBus`) receives one
    ``span_end`` event per finished span, which is how span data reaches
    the CLI's JSONL log.  The event holds the span and renders its
    fields only when a reader or a file sink asks for them.

    Example
    -------
    >>> tracer = Tracer()
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner") as inner:
    ...         pass
    >>> inner.parent_id == outer.span_id and inner.trace_id == outer.trace_id
    True
    """

    def __init__(self, capacity: int = 4096, events=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._events = events
        # Tail-based retention (off by default: every span is kept).
        self._retention: TailRetentionPolicy | None = None
        self._pending: OrderedDict[int, list[Span]] = OrderedDict()
        self._marked: set[int] = set()
        self._retained_traces = 0
        self._evicted_traces = 0
        self._evicted_spans = 0

    def span(self, name: str, clock=None, **labels: object) -> Span:
        """Open a new span (enter the returned object as a context).

        The parent is the calling context's current span; a span with no
        parent starts a fresh trace.  ``clock`` provides virtual-time
        stamps and defaults to the parent's clock, so fan-out spans time
        against the same simulated clock their phase does.
        """
        parent = _CURRENT_SPAN.get()
        with self._lock:
            span_id = next(self._span_ids)
            trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        if clock is None and parent is not None:
            clock = parent._clock
        return Span(
            tracer=self,
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            labels=dict(labels),
            clock=clock,
        )

    # -- tail-based retention ------------------------------------------

    def enable_tail_retention(self, policy: TailRetentionPolicy) -> None:
        """Keep full span trees only for interesting traces (see policy).

        While enabled, finished spans buffer per trace until the trace's
        root span closes; the whole tree is then either committed to the
        ring or evicted.  ``span_end`` events are emitted for every span
        regardless — retention governs the in-memory ring, not the log.
        """
        with self._lock:
            self._retention = policy

    def mark_retain(self, trace_id: int) -> None:
        """Force retention of ``trace_id`` whatever the policy says."""
        with self._lock:
            self._marked.add(trace_id)

    def retention_stats(self) -> dict:
        """Retention counters (all zero until a policy is enabled)."""
        with self._lock:
            return {
                "enabled": self._retention is not None,
                "retained_traces": self._retained_traces,
                "evicted_traces": self._evicted_traces,
                "evicted_spans": self._evicted_spans,
                "pending_traces": len(self._pending),
            }

    def _keep_trace(self, root: Span, spans: list[Span]) -> bool:
        policy = self._retention
        if root.trace_id in self._marked:
            return True
        if policy.keep_errors and any(s.error is not None for s in spans):
            return True
        if policy.latency_threshold is not None:
            duration = None
            if policy.use_virtual:
                duration = root.virtual_seconds
            if duration is None:
                duration = root.wall_seconds
            if duration > policy.latency_threshold:
                return True
        return False

    def _finalize_trace(self, trace_id: int, root: Span) -> None:
        # Caller holds the lock.
        spans = self._pending.pop(trace_id, [])
        keep = self._keep_trace(root, spans)
        self._marked.discard(trace_id)
        if keep:
            self._finished.extend(spans)
            self._retained_traces += 1
        else:
            self._evicted_traces += 1
            self._evicted_spans += len(spans)

    def _record(self, span: Span) -> None:
        with self._lock:
            if self._retention is None:
                self._finished.append(span)
            else:
                self._pending.setdefault(span.trace_id, []).append(span)
                if span.parent_id is None:
                    self._finalize_trace(span.trace_id, span)
                while len(self._pending) > self._retention.pending_capacity:
                    stale_id, stale = self._pending.popitem(last=False)
                    self._marked.discard(stale_id)
                    self._evicted_traces += 1
                    self._evicted_spans += len(stale)
        if self._events is not None:
            clock = span._clock
            self._events.publish(
                SpanEndEvent(
                    span, time.time(), clock.now() if clock is not None else None
                )
            )

    def finished(self, name: str | None = None) -> list[Span]:
        """Finished spans, oldest first, optionally filtered by name."""
        with self._lock:
            spans = list(self._finished)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def span_trees(self, trace_id: int | None = None) -> list[dict]:
        """Finished spans as nested trees (JSON-serialisable).

        Children sit under their parent's ``"children"`` list, ordered
        by span id; spans whose parent has fallen out of the ring (or is
        still open) surface as roots.  ``trace_id`` restricts the forest
        to one trace.
        """
        spans = self.finished()
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        nodes: dict[int, dict] = {
            s.span_id: {**s.to_dict(), "children": []} for s in spans
        }
        roots = []
        for span in sorted(spans, key=lambda s: s.span_id):
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id is not None else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def clear(self) -> None:
        """Drop all finished spans (and any retention buffers)."""
        with self._lock:
            self._finished.clear()
            self._pending.clear()
            self._marked.clear()

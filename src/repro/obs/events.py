"""Structured events and pluggable sinks.

An :class:`Event` is a flat, JSON-serialisable record — a name, a wall
timestamp, an optional virtual timestamp, and free-form fields.  The
:class:`EventBus` fans each emitted event out to every attached sink:

- :class:`RingSink` keeps the most recent events in memory, as given
  (tests, the API's introspection endpoints);
- :class:`JsonlSink` appends one JSON object per line to a file (the
  CLI's ``--log-json``), serialising each event as it is written.

A tracer publishes a :class:`SpanEndEvent` per finished span, which
renders the span's fields only when something reads them.

Sinks never feed back into the system under observation: emitting draws
no randomness, advances no clock, and a slow or failed file write only
affects the log, not the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    """One structured telemetry record."""

    name: str
    wall_time: float
    virtual_time: float | None = None
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record: dict = {"event": self.name, "wall_time": self.wall_time}
        if self.virtual_time is not None:
            record["virtual_time"] = self.virtual_time
        record.update(self.fields)
        return record


class SpanEndEvent:
    """A ``span_end`` event that renders its finished span when first read.

    It holds the span and the wall timestamp of its end.  ``fields`` is
    the span's :meth:`~repro.obs.spans.Span.to_dict` with ``name`` moved
    to ``span`` (``name`` is the event's own), built on first access, so
    a span whose event nobody reads is never rendered.  It reads the
    same as an :class:`Event` built at emission time with no clock.
    """

    __slots__ = ("span", "wall_time", "_fields")

    name = "span_end"

    def __init__(self, span, wall_time: float):
        self.span = span
        self.wall_time = wall_time
        self._fields: dict | None = None

    @property
    def fields(self) -> dict:
        if self._fields is None:
            fields = self.span.to_dict()
            fields["span"] = fields.pop("name")
            self._fields = fields
        return self._fields

    def to_dict(self) -> dict:
        return {"event": self.name, "wall_time": self.wall_time, **self.fields}


class RingSink:
    """Keeps the last ``capacity`` events in memory.

    Example
    -------
    >>> sink = RingSink(capacity=2)
    >>> bus = EventBus([sink])
    >>> for i in range(3):
    ...     _ = bus.emit("tick", i=i)
    >>> [e.fields["i"] for e in sink.events()]
    [1, 2]
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._events: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def events(self, name: str | None = None) -> list[Event]:
        """Recorded events, oldest first, optionally filtered by name."""
        with self._lock:
            events = list(self._events)
        if name is not None:
            events = [e for e in events if e.name == name]
        return events

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class SinkClosedError(RuntimeError):
    """Raised when an event is written to a sink already closed.

    A silent drop here would mean telemetry quietly vanishing after a
    mis-ordered shutdown; the typed error turns that bug into a loud one
    at the exact call site.
    """


class JsonlSink:
    """Appends one JSON object per event to a file.

    Values that are not natively JSON-serialisable are stringified so a
    telemetry bug can never crash the run being observed.  The sink is a
    context manager whose ``__exit__`` always flushes and closes — also
    while an exception is propagating, so a crashing run still leaves
    every buffered line on disk for post-mortem profiling.
    """

    def __init__(self, path):
        self._path = path
        self._file = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    @property
    def path(self):
        """Where the log lines go."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        with self._lock:
            return self._file.closed

    def write(self, event: Event) -> None:
        # Writes ride the file object's own buffer; lines only reach the
        # disk on :meth:`flush`/:meth:`close`.  Keeps the per-event cost
        # out of the run being observed.
        line = json.dumps(event.to_dict(), default=str)
        with self._lock:
            if self._file.closed:
                raise SinkClosedError(
                    f"JsonlSink({self._path!r}) is closed; event "
                    f"{event.name!r} would be lost"
                )
            self._file.write(line + "\n")

    def flush(self) -> None:
        """Push buffered lines to disk."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class EventBus:
    """Distributes emitted events to every attached sink.

    The sinks are an immutable tuple, replaced on add and remove, so
    emitting reads it without a lock or a copy.
    """

    def __init__(self, sinks: list | None = None):
        self._sinks: tuple = tuple(sinks or ())
        self._lock = threading.Lock()  # serialises add and remove

    def add_sink(self, sink) -> None:
        """Attach a sink; it sees events emitted from now on."""
        with self._lock:
            self._sinks = (*self._sinks, sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink if attached."""
        with self._lock:
            if sink in self._sinks:
                sinks = list(self._sinks)
                sinks.remove(sink)
                self._sinks = tuple(sinks)

    def emit(self, name: str, clock=None, **fields: object) -> Event:
        """Build an :class:`Event` and hand it to every sink.

        ``clock`` (anything with a ``now()``) stamps the event with
        virtual time alongside the wall timestamp.
        """
        event = Event(
            name=name,
            wall_time=time.time(),
            virtual_time=clock.now() if clock is not None else None,
            fields=dict(fields),
        )
        self.publish(event)
        return event

    def publish(self, event) -> None:
        """Hand an already built event to every sink."""
        for sink in self._sinks:
            sink.write(event)

"""The :class:`Observability` façade and the ambient-instance protocol.

One ``Observability`` bundles the three telemetry primitives — a
:class:`~repro.obs.spans.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventBus` (with a bounded in-memory ring
always attached) — behind convenience methods the instrumented layers
call.

Instrumented code never receives an instance explicitly.  It calls
:func:`get_obs`, which resolves the **ambient** instance: whatever
:func:`use` installed in the current :mod:`contextvars` context, falling
back to one process-wide default.  Because the worker-pool executors
propagate context into their threads, work fanned out by a CLI run or an
API request reports to that caller's instance — two concurrent API
deployments in one process cannot cross-pollute each other's telemetry.

A disabled instance (:meth:`Observability.disabled`) turns every
operation into an early-returning no-op, which is what the EXP-OBS
overhead benchmark compares against.

The keyed methods (:meth:`Observability.inc_key`,
:meth:`Observability.observe_inc_key`, :meth:`Observability.write`)
take series keys built once by :func:`~repro.obs.metrics.label_key`;
the per-request layers (HTTP client, caches, token buckets, executors)
write through them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.events import EventBus, JsonlSink, RingSink
from repro.obs.metrics import LabelKey, MetricsRegistry
from repro.obs.slo import SloEngine
from repro.obs.spans import NULL_SPAN, Span, Tracer, current_span


class Observability:
    """Tracer + metrics + events behind one handle.

    Example
    -------
    >>> obs = Observability()
    >>> with obs.span("work"):
    ...     obs.inc("widgets_total")
    >>> obs.metrics.counter_value("widgets_total")
    1.0
    >>> [s.name for s in obs.tracer.finished()]
    ['work']
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        span_capacity: int = 4096,
        event_capacity: int = 2048,
    ):
        self.enabled = enabled
        self.events = EventBus()
        self.ring = RingSink(capacity=event_capacity)
        self.events.add_sink(self.ring)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(capacity=span_capacity, events=self.events)
        self.slo = SloEngine(self.metrics)

    @classmethod
    def disabled(cls) -> "Observability":
        """An instance whose every operation is a no-op."""
        return cls(enabled=False, span_capacity=1, event_capacity=1)

    # -- spans ---------------------------------------------------------

    def span(self, name: str, clock=None, **labels: object):
        """Open a span (see :meth:`~repro.obs.spans.Tracer.span`)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, clock=clock, **labels)

    # -- metrics -------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Increment a counter."""
        if self.enabled:
            self.metrics.inc(name, value, **labels)

    def inc_key(self, name: str, key: LabelKey, value: float = 1.0) -> None:
        """Increment a counter series by its prebuilt key."""
        if self.enabled:
            self.metrics.inc_key(name, key, value)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge."""
        if self.enabled:
            self.metrics.gauge_set(name, value, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record a histogram observation.

        When the calling context sits inside an open span, the
        observation carries a ``(trace_id, span_id)`` exemplar — the
        bridge from "p99 is bad" to "here is a trace that made it bad".
        """
        if self.enabled:
            self.metrics.observe(name, value, exemplar=_exemplar(), **labels)

    def observe_inc_key(
        self, name: str, key: LabelKey, value: float, counter: str, counter_key: LabelKey
    ) -> None:
        """One observation and one counter increment in one registry call.

        See :meth:`~repro.obs.metrics.MetricsRegistry.observe_inc_key`;
        the observation carries the same span exemplar as :meth:`observe`.
        """
        if self.enabled:
            self.metrics.observe_inc_key(
                name, key, value, counter, counter_key, _exemplar()
            )

    def write(self, counters=(), observations=()) -> None:
        """Several keyed counter and histogram writes in one registry call.

        See :meth:`~repro.obs.metrics.MetricsRegistry.write`; every
        observation carries the same span exemplar as :meth:`observe`.
        """
        if self.enabled:
            self.metrics.write(counters, observations, _exemplar())

    # -- events --------------------------------------------------------

    def emit(self, name: str, clock=None, **fields: object) -> None:
        """Emit a structured event to every attached sink."""
        if self.enabled:
            self.events.emit(name, clock=clock, **fields)

    def add_jsonl_sink(self, path) -> JsonlSink:
        """Attach (and return) a JSONL file sink."""
        sink = JsonlSink(path)
        self.events.add_sink(sink)
        return sink

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        """A compact JSON-serialisable roll-up (the CLI's ``--metrics``)."""
        snapshot = self.metrics.snapshot()
        return {
            "spans": len(self.tracer.finished()),
            "events": len(self.ring.events()),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }


def _exemplar() -> tuple[int, int] | None:
    """The open span's ``(trace_id, span_id)``, or ``None`` outside one."""
    span = current_span()
    return span.exemplar if isinstance(span, Span) else None


_DEFAULT = Observability()
_AMBIENT: ContextVar[Observability | None] = ContextVar(
    "repro_obs_ambient", default=None
)


def get_obs() -> Observability:
    """The ambient :class:`Observability` of the calling context."""
    return _AMBIENT.get() or _DEFAULT


@contextmanager
def use(obs: Observability):
    """Install ``obs`` as the ambient instance for the ``with`` body.

    The installation rides the :mod:`contextvars` context, so worker
    threads spawned through :mod:`repro.concurrency` inside the body
    report to ``obs`` too.
    """
    token = _AMBIENT.set(obs)
    try:
        yield obs
    finally:
        _AMBIENT.reset(token)

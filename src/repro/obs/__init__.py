"""``repro.obs`` — the deterministic observability subsystem.

The telemetry plane behind one façade:

- **spans** (:mod:`repro.obs.spans`): hierarchical, contextvars-
  propagated timing in wall seconds and in the virtual seconds charged
  to the request ledger in scope, plus
  tail-based retention that keeps full span trees only for interesting
  (erroring / SLO-breaching / marked) traces;
- **metrics** (:mod:`repro.obs.metrics`): thread-safe counters, gauges
  and fixed-bucket histograms with streaming quantile estimates and
  trace exemplars;
- **events** (:mod:`repro.obs.events`): JSON-serialisable records fanned
  out to pluggable sinks (in-memory ring, JSONL file);
- **slo** (:mod:`repro.obs.slo`): declarative latency objectives
  evaluated over sliding virtual-clock windows with multi-window
  burn-rate alerts;
- **ledger** (:mod:`repro.obs.ledger`): per-request cost attribution
  (HTTP by host, waits, cache traffic, feature builds, prune rates) on
  a contextvars stack — the one request-cost channel and the one source
  of virtual time, which pipeline phases, served requests and spans
  read their costs from;
- **profile** (:mod:`repro.obs.profile`): deterministic self-time
  rollups over the span forest, rendered as a flame table;
- **export** (:mod:`repro.obs.export`): Prometheus text rendering and
  the shared deployment-metrics payload.

Instrumented layers resolve the ambient :class:`Observability` with
:func:`get_obs`; callers scope their own instance with :func:`use`.
Instrumentation is read-only with respect to the simulation: it draws no
randomness and advances no clock, so enabling or disabling it cannot
change rankings, request counts, or any other pipeline output.
"""

from repro.obs.events import Event, EventBus, JsonlSink, RingSink, SinkClosedError
from repro.obs.export import deployment_metrics, render_prometheus
from repro.obs.ledger import (
    RequestLedger,
    charge_cache,
    charge_features,
    charge_http,
    charge_pruning,
    charge_wait,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramBoundsError,
    MetricsRegistry,
    label_key,
)
from repro.obs.profile import (
    PhaseProfile,
    phase_profile,
    render_flame_table,
    spans_from_events,
)
from repro.obs.runtime import (
    Observability,
    get_obs,
    use,
)
from repro.obs.slo import (
    BurnAlert,
    SloEngine,
    SloSpec,
    SloStatus,
    default_http_slos,
)
from repro.obs.spans import Span, TailRetentionPolicy, Tracer, current_span

__all__ = [
    "BurnAlert",
    "DEFAULT_BUCKETS",
    "Event",
    "EventBus",
    "HistogramBoundsError",
    "JsonlSink",
    "MetricsRegistry",
    "Observability",
    "PhaseProfile",
    "RequestLedger",
    "RingSink",
    "SinkClosedError",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "Span",
    "TailRetentionPolicy",
    "Tracer",
    "charge_cache",
    "charge_features",
    "charge_http",
    "charge_pruning",
    "charge_wait",
    "current_span",
    "default_http_slos",
    "deployment_metrics",
    "get_obs",
    "label_key",
    "phase_profile",
    "render_flame_table",
    "render_prometheus",
    "spans_from_events",
    "use",
]

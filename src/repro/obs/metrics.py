"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately Prometheus-shaped without being Prometheus:
metrics are identified by a name plus a small label set (``host``,
``route``, ``cache`` ...), histograms use **fixed bucket bounds** —
declared up front via :meth:`MetricsRegistry.declare_histogram` or fixed
by the first observation — and :meth:`MetricsRegistry.snapshot` returns
a plain JSON-serialisable dict the API and CLI can ship as-is.

Histograms additionally support quantile estimation (an exact path while
the sample window still holds every observation, bucket interpolation
past that) and bounded ``(trace_id, span_id)`` exemplars so a latency
outlier in a dashboard links back to the trace that explains it.

Everything mutates under one lock.  Critical sections are a handful of
dict operations, so a single registry comfortably absorbs writes from
every worker-pool thread — and, crucially for the determinism contract,
recording a metric never draws randomness or advances any clock.

A series key is built from its labels by :func:`label_key`.  Call sites
that write on every simulated request build their keys once and pass
them to the keyed writes (:meth:`MetricsRegistry.inc_key`,
:meth:`MetricsRegistry.observe_key`), so the hot path costs one lock and
one add.  A unit of work that feeds several series records them in one
call: a simulated attempt its latency and status count in
:meth:`MetricsRegistry.observe_inc_key`, an executor fan-out every
task's timings and outcome in :meth:`MetricsRegistry.write`.  A key
names a series in any registry, so one prebuilt key serves every
deployment that shares the call site.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable

#: Default histogram bounds, tuned for the simulated web's latencies
#: (tens of milliseconds) while still resolving multi-second waits.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Raw observations retained per histogram series: its first ones.
#: While ``count`` is still within this window the quantile path is
#: exact; past it the estimate falls back to bucket interpolation.
SAMPLE_CAPACITY = 512

#: Exemplars retained per histogram series (most recent first out).
EXEMPLAR_CAPACITY = 8

#: The quantiles every stats/snapshot rendering reports.
REPORTED_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

LabelKey = tuple[tuple[str, str], ...]


class HistogramBoundsError(ValueError):
    """Conflicting bucket bounds were declared for one histogram name."""


def label_key(**labels: object) -> LabelKey:
    """The registry key of one label set: sorted ``(name, str(value))`` pairs.

    >>> label_key(status=200, host="dblp")
    (('host', 'dblp'), ('status', '200'))
    """
    return _label_key(labels)


def _label_key(labels: dict[str, object]) -> LabelKey:
    # Most values are already strings, so convert in place rather than
    # paying a generator + str() for every pair.
    items = sorted(labels.items())
    for i, (key, value) in enumerate(items):
        if type(value) is not str:
            items[i] = (key, str(value))
    return tuple(items)


class _Histogram:
    """One histogram series: cumulative bucket counts + sum + count.

    Alongside the buckets it keeps the first :data:`SAMPLE_CAPACITY`
    raw observations (exact quantiles until the count passes them) and a
    bounded ring of exemplars — ``(value, (trace_id, span_id))`` pairs
    linking observations back to the span that produced them.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count", "samples", "exemplars")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0
        self.samples: list[float] = []
        self.exemplars: deque[tuple[float, tuple[int, int]]] = deque(
            maxlen=EXEMPLAR_CAPACITY
        )

    def observe(self, value: float, exemplar: tuple[int, int] | None = None) -> None:
        self.total += value
        self.count += 1
        if self.count <= SAMPLE_CAPACITY:
            # Past the window no read uses the samples (quantiles go to
            # the buckets), so later values are not kept.
            self.samples.append(value)
        if exemplar is not None:
            self.exemplars.append((value, exemplar))
        # The first bound >= value; NaN, which compares false with every
        # bound, goes to +Inf.
        if value == value:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
        else:
            self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of this series.

        Exact (linear interpolation between order statistics) while the
        sample window still holds every observation; bucket-boundary
        interpolation afterwards.  ``None`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        if self.count <= len(self.samples):
            ordered = sorted(self.samples)
            position = q * (len(ordered) - 1)
            lower = int(position)
            upper = min(lower + 1, len(ordered) - 1)
            fraction = position - lower
            return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float:
        target = q * self.count
        running = 0
        previous_bound = 0.0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if running + bucket >= target:
                if bucket == 0:
                    return bound
                fraction = (target - running) / bucket
                return previous_bound + (bound - previous_bound) * fraction
            running += bucket
            previous_bound = bound
        # Target falls in the +Inf bucket: the upper edge is unknown, so
        # report the highest finite bound — the conventional clamp.
        return self.bounds[-1] if self.bounds else previous_bound

    def count_at_or_below(self, threshold: float) -> float:
        """Estimated observations ``<= threshold`` (exact when sampled).

        The SLO engine's good-event reader: exact while the sample
        window is complete, cumulative-bucket interpolation afterwards.
        """
        if self.count == 0:
            return 0.0
        if self.count <= len(self.samples):
            return float(sum(1 for value in self.samples if value <= threshold))
        running = 0
        previous_bound = 0.0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if threshold <= bound:
                if bucket == 0 or bound == previous_bound:
                    return float(running)
                fraction = (threshold - previous_bound) / (bound - previous_bound)
                return running + bucket * max(0.0, min(1.0, fraction))
            running += bucket
            previous_bound = bound
        return float(self.count)

    def to_dict(self) -> dict:
        cumulative, running = {}, 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            cumulative[str(bound)] = running
        cumulative["+Inf"] = running + self.bucket_counts[-1]
        record = {
            "buckets": cumulative,
            "sum": self.total,
            "count": self.count,
        }
        for q in REPORTED_QUANTILES:
            estimate = self.quantile(q)
            if estimate is not None:
                record[f"p{int(q * 100)}"] = round(estimate, 6)
        if self.exemplars:
            record["exemplars"] = [
                {"value": value, "trace_id": trace_id, "span_id": span_id}
                for value, (trace_id, span_id) in self.exemplars
            ]
        return record


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, labels)``.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.inc("http_requests_total", host="dblp", status="200")
    >>> registry.inc("http_requests_total", host="dblp", status="200")
    >>> registry.counter_value("http_requests_total", host="dblp", status="200")
    2.0
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, _Histogram]] = {}
        self._histogram_bounds: dict[str, tuple[float, ...]] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (default 1) to a counter series."""
        self.inc_key(name, _label_key(labels), value)

    def inc_key(self, name: str, key: LabelKey, value: float = 1.0) -> None:
        """:meth:`inc` for a key built by :func:`label_key`."""
        with self._lock:
            self._inc(name, key, value)

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 when never written)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    # -- gauges --------------------------------------------------------

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value``."""
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    # -- histograms ----------------------------------------------------

    def declare_histogram(self, name: str, buckets: tuple[float, ...]) -> None:
        """Fix ``name``'s bucket bounds before any observation arrives.

        First-observation-fixes-bounds is a silent footgun: a latency
        metric observed once on a code path that forgot to pass bounds
        is stuck with :data:`DEFAULT_BUCKETS` forever.  Declaring the
        bounds at deployment time removes the race.  Re-declaring the
        same bounds is a no-op; declaring *different* bounds than the
        ones already fixed (by a declaration or a first observation)
        raises :class:`HistogramBoundsError` instead of silently keeping
        the old ones.
        """
        if not buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing: {bounds}"
            )
        with self._lock:
            existing = self._histogram_bounds.get(name)
            if existing is not None and existing != bounds:
                raise HistogramBoundsError(
                    f"histogram {name!r} bounds already fixed to {existing}, "
                    f"cannot redeclare as {bounds}"
                )
            self._histogram_bounds[name] = bounds

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        exemplar: tuple[int, int] | None = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into a histogram series.

        Bucket bounds come from an earlier :meth:`declare_histogram`,
        else the first observation fixes them (``buckets`` or
        :data:`DEFAULT_BUCKETS`); later ``buckets`` arguments are
        ignored so every series of one metric stays comparable.
        ``exemplar`` optionally attaches a ``(trace_id, span_id)`` pair
        linking this observation to the span that produced it.
        """
        self.observe_key(name, _label_key(labels), value, exemplar, buckets)

    def observe_key(
        self,
        name: str,
        key: LabelKey,
        value: float,
        exemplar: tuple[int, int] | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """:meth:`observe` for a key built by :func:`label_key`."""
        with self._lock:
            self._histogram(name, key, buckets).observe(value, exemplar)

    def observe_inc_key(
        self,
        name: str,
        key: LabelKey,
        value: float,
        counter: str,
        counter_key: LabelKey,
        exemplar: tuple[int, int] | None = None,
    ) -> None:
        """One observation and one counter increment under one lock.

        The shape of one simulated attempt, its latency and its status
        count, written without building the tuples :meth:`write` takes.
        """
        with self._lock:
            self._inc(counter, counter_key, 1.0)
            self._histogram(name, key, None).observe(value, exemplar)

    def write(
        self,
        counters: Iterable[tuple[str, LabelKey, float]] = (),
        observations: Iterable[tuple[str, LabelKey, Iterable[float]]] = (),
        exemplar: tuple[int, int] | None = None,
    ) -> None:
        """Several keyed writes under one lock acquisition.

        Each ``(name, key, value)`` in ``counters`` adds ``value`` to a
        counter series, as :meth:`inc_key` does; each ``(name, key,
        values)`` in ``observations`` records every value into a
        histogram series, as :meth:`observe_key` does, all carrying
        ``exemplar``.
        """
        with self._lock:
            for name, key, value in counters:
                self._inc(name, key, value)
            for name, key, values in observations:
                histogram = self._histogram(name, key, None)
                for value in values:
                    histogram.observe(value, exemplar)

    def _inc(self, name: str, key: LabelKey, value: float) -> None:
        # Caller holds self._lock.
        series = self._counters.get(name)
        if series is None:
            series = self._counters[name] = {}
        series[key] = series.get(key, 0.0) + value

    def _histogram(
        self, name: str, key: LabelKey, buckets: tuple[float, ...] | None
    ) -> _Histogram:
        # Caller holds self._lock.
        series = self._histograms.get(name)
        if series is None:
            series = self._histograms[name] = {}
        histogram = series.get(key)
        if histogram is None:
            bounds = self._histogram_bounds.setdefault(
                name, tuple(buckets) if buckets else DEFAULT_BUCKETS
            )
            histogram = series[key] = _Histogram(bounds)
        return histogram

    def histogram_stats(self, name: str, **labels: object) -> dict | None:
        """``{"buckets": ..., "sum": ..., "count": ..., "p50": ...}`` or ``None``."""
        with self._lock:
            histogram = self._histograms.get(name, {}).get(_label_key(labels))
            return histogram.to_dict() if histogram else None

    def quantile(self, name: str, q: float, **labels: object) -> float | None:
        """Estimated ``q``-quantile of one histogram series, or ``None``."""
        with self._lock:
            histogram = self._histograms.get(name, {}).get(_label_key(labels))
            return histogram.quantile(q) if histogram else None

    def histogram_window_counts(
        self,
        name: str,
        threshold: float | None,
        label_filter: dict[str, str] | None = None,
    ) -> tuple[float, float]:
        """``(good, total)`` cumulative counts across matching series.

        ``good`` is the estimated number of observations at or below
        ``threshold`` (all of them when ``threshold`` is ``None``);
        ``label_filter`` keeps only series whose labels are a superset
        of the filter.  This is the SLO engine's one read path.
        """
        wanted = {(k, str(v)) for k, v in (label_filter or {}).items()}
        good = total = 0.0
        with self._lock:
            for key, histogram in self._histograms.get(name, {}).items():
                if wanted and not wanted <= set(key):
                    continue
                total += histogram.count
                if threshold is None:
                    good += histogram.count
                else:
                    good += histogram.count_at_or_below(threshold)
        return good, total

    def counter_matching(
        self, name: str, label_filter: dict[str, str] | None = None
    ) -> float:
        """Sum of a counter across series whose labels contain the filter."""
        wanted = {(k, str(v)) for k, v in (label_filter or {}).items()}
        with self._lock:
            return sum(
                value
                for key, value in self._counters.get(name, {}).items()
                if not wanted or wanted <= set(key)
            )

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable dump of every series, sorted for stability."""
        with self._lock:
            return {
                "counters": {
                    name: [
                        {"labels": dict(key), "value": value}
                        for key, value in sorted(series.items())
                    ]
                    for name, series in sorted(self._counters.items())
                },
                "gauges": {
                    name: [
                        {"labels": dict(key), "value": value}
                        for key, value in sorted(series.items())
                    ]
                    for name, series in sorted(self._gauges.items())
                },
                "histograms": {
                    name: [
                        {"labels": dict(key), **histogram.to_dict()}
                        for key, histogram in sorted(series.items())
                    ]
                    for name, series in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Drop every series (bucket-bound registrations included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._histogram_bounds.clear()

"""The SLO engine: declarative objectives, burn-rate alerts, verdicts.

An :class:`SloSpec` declares a service-level objective the way an SRE
would: "``objective`` of the events observed by ``metric`` must be good
over a sliding ``window``", where an event is *good* when its value sits
at or below ``threshold`` (latency) and it was not counted by the
spec's ``error_metric`` (availability).  The :class:`SloEngine`
evaluates specs against the cumulative counters and histograms the
:class:`~repro.obs.metrics.MetricsRegistry` already records — no second
instrumentation path — by checkpointing the cumulative totals against
the **virtual clock** and differencing checkpoints to recover sliding
windows, exactly the way a Prometheus ``rate()`` recovers a window from
a monotone counter.

Alerting follows the multi-window burn-rate scheme: with an error
budget of ``1 - objective``, the *burn rate* over a window is the
window's bad-event ratio divided by the budget (burn 1.0 = spending the
budget exactly as fast as the objective allows).  A
:class:`BurnAlert` fires when **both** its long and short windows burn
above its factor — the long window for significance, the short one so
the alert resets quickly once the incident ends.  The verdict ladder:

- ``burning`` — a page-severity alert fired, or the compliance window's
  good-ratio has already fallen below the objective;
- ``warn``    — a ticket-severity alert fired;
- ``ok``      — neither.

Because every timestamp comes from the simulated clock and every count
from deterministic instrumentation, the whole ladder — including the
exact request on which the verdict flips — reproduces bit-identically
at any worker count.

Example
-------
>>> from repro.obs.metrics import MetricsRegistry
>>> registry = MetricsRegistry()
>>> engine = SloEngine(registry)
>>> _ = engine.add(SloSpec(name="api", metric="latency", threshold=0.1,
...                        objective=0.9, window=600.0))
>>> for _ in range(20):
...     registry.observe("latency", 0.05)
>>> engine.status("api").verdict
'ok'
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

#: Verdicts ordered from healthy to on-fire; aggregation takes the max.
VERDICTS = ("ok", "warn", "burning")

#: Checkpoints kept per spec — old ones beyond every window are pruned,
#: this is the hard backstop against unbounded history.
HISTORY_CAPACITY = 4096


@dataclass(frozen=True)
class BurnAlert:
    """One multi-window burn-rate alert tier.

    Fires when the burn rate over *both* ``long_window`` and
    ``short_window`` (virtual seconds) reaches ``factor``.
    """

    severity: str  # "warn" | "burning"
    factor: float
    long_window: float
    short_window: float

    def __post_init__(self):
        if self.severity not in ("warn", "burning"):
            raise ValueError(f"severity must be warn|burning, got {self.severity!r}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if self.long_window <= 0 or self.short_window <= 0:
            raise ValueError("alert windows must be > 0")
        if self.short_window > self.long_window:
            raise ValueError(
                f"short window {self.short_window} exceeds long {self.long_window}"
            )


def default_alerts(window: float) -> tuple[BurnAlert, ...]:
    """The Google-SRE-shaped two-tier ladder, scaled to ``window``.

    Page ("burning") on a fast burn — 14.4× budget over window/24 and
    window/288 — and ticket ("warn") on a slow one: 3× over window/4
    and window/48.  At a one-day window these are the 1h/5m/14.4 and
    6h/30m/3 pairs.
    """
    return (
        BurnAlert("burning", 14.4, window / 24, window / 288),
        BurnAlert("warn", 3.0, window / 4, window / 48),
    )


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over an instrumented latency metric.

    Parameters
    ----------
    name:
        Unique handle (``scholar-availability``).
    metric:
        Histogram of per-event latencies (``http_request_latency_seconds``).
    labels:
        Series filter: only label sets containing these pairs count.
    threshold:
        Good iff the observed value is ``<= threshold``; ``None`` makes
        latency irrelevant (pure availability SLO).
    objective:
        Target good-event ratio in ``(0, 1)``.
    window:
        Compliance window in virtual seconds.
    error_metric / error_labels:
        A counter of events that are bad regardless of latency (fault
        injections, 5xx responses).  Error counts are subtracted from
        the good count — the reader assumes errored events' latencies
        landed at or below the threshold, which holds for the simulated
        web (faults are decided after the latency charge).
    alerts:
        Burn-rate tiers; defaults to :func:`default_alerts`.
    """

    name: str
    metric: str
    objective: float = 0.99
    threshold: float | None = None
    window: float = 3600.0
    labels: tuple[tuple[str, str], ...] = ()
    error_metric: str | None = None
    error_labels: tuple[tuple[str, str], ...] = ()
    description: str = ""
    alerts: tuple[BurnAlert, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if not self.window > 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        object.__setattr__(self, "error_labels", tuple(sorted(self.error_labels)))
        if not self.alerts:
            object.__setattr__(self, "alerts", default_alerts(self.window))

    @property
    def budget(self) -> float:
        """The error budget: the bad-event ratio the objective permits."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class SloStatus:
    """One spec's evaluation at a point in virtual time."""

    name: str
    verdict: str  # ok | warn | burning
    good_ratio: float  # over the compliance window (1.0 with no events)
    objective: float
    window: float
    events: float  # total events in the compliance window
    bad: float  # bad events in the compliance window
    budget_consumed: float  # bad_ratio / budget (1.0 = exhausted)
    alerts: tuple[tuple, ...]  # per-tier burn rates and firing state (label/value pairs)
    at: float  # virtual time of evaluation

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "good_ratio": round(self.good_ratio, 6),
            "objective": self.objective,
            "window": self.window,
            "events": self.events,
            "bad": round(self.bad, 4),
            "budget_consumed": round(self.budget_consumed, 4),
            "alerts": [dict(alert) for alert in self.alerts],
            "at": self.at,
        }


@dataclass
class _Checkpoint:
    at: float
    good: float
    total: float


class SloEngine:
    """Evaluates :class:`SloSpec`s against a metrics registry.

    ``tick()`` checkpoints each spec's cumulative ``(good, total)``
    against the bound clock; ``status()`` differences the live totals
    against historical checkpoints to recover sliding windows.  Call
    ``tick()`` wherever a heartbeat is natural — the API does it once
    per handled request, tests and the CLI between scenario phases.
    Without a bound clock the engine counts ticks instead of seconds,
    which keeps it usable (if coarse) outside the simulation.
    """

    def __init__(self, registry: MetricsRegistry, clock=None):
        self._registry = registry
        self._clock = clock
        self._specs: dict[str, SloSpec] = {}
        self._history: dict[str, deque[_Checkpoint]] = {}
        self._ticks = 0
        self._lock = threading.Lock()

    def bind_clock(self, clock) -> None:
        """Attach the virtual clock windows are measured against.

        Idempotent for the same clock; deployments bind their
        simulation's clock once at setup.
        """
        self._clock = clock

    def add(self, spec: SloSpec) -> SloSpec:
        """Register (or replace) a spec; returns it for chaining."""
        with self._lock:
            self._specs[spec.name] = spec
            self._history.setdefault(spec.name, deque(maxlen=HISTORY_CAPACITY))
        return spec

    def remove(self, name: str) -> None:
        """Drop a spec and its history (missing names are ignored)."""
        with self._lock:
            self._specs.pop(name, None)
            self._history.pop(name, None)

    def specs(self) -> list[SloSpec]:
        """Registered specs, sorted by name."""
        with self._lock:
            return [self._specs[name] for name in sorted(self._specs)]

    @property
    def has_specs(self) -> bool:
        """Whether anything is registered (the hot-path early-out)."""
        return bool(self._specs)

    def now(self) -> float:
        """Current evaluation time: virtual seconds, or the tick count."""
        if self._clock is not None:
            return self._clock.now()
        return float(self._ticks)

    def tick(self) -> None:
        """Checkpoint every spec's cumulative totals at the current time."""
        with self._lock:
            specs = list(self._specs.values())
            self._ticks += 1
        at = self.now()
        for spec in specs:
            good, total = self._totals(spec)
            with self._lock:
                history = self._history.get(spec.name)
                if history is None:  # removed concurrently
                    continue
                if history and history[-1].at == at:
                    # Same instant: keep the newest totals only.
                    history[-1].good = good
                    history[-1].total = total
                else:
                    history.append(_Checkpoint(at=at, good=good, total=total))
                self._prune(spec, history, at)

    def status(self, name: str) -> SloStatus:
        """Evaluate one spec right now (live totals, historical baselines)."""
        with self._lock:
            spec = self._specs[name]
        at = self.now()
        good, total = self._totals(spec)
        window_bad, window_total = self._window_delta(spec, good, total, at, spec.window)
        good_ratio = 1.0 if window_total == 0 else 1.0 - window_bad / window_total
        budget_consumed = (
            0.0 if window_total == 0 else (window_bad / window_total) / spec.budget
        )
        alerts = []
        worst = "ok"
        for alert in spec.alerts:
            long_burn = self._burn_rate(spec, good, total, at, alert.long_window)
            short_burn = self._burn_rate(spec, good, total, at, alert.short_window)
            firing = long_burn >= alert.factor and short_burn >= alert.factor
            alerts.append(
                (
                    ("severity", alert.severity),
                    ("factor", alert.factor),
                    ("long_window", alert.long_window),
                    ("short_window", alert.short_window),
                    ("long_burn", round(long_burn, 4)),
                    ("short_burn", round(short_burn, 4)),
                    ("firing", firing),
                )
            )
            if firing and VERDICTS.index(alert.severity) > VERDICTS.index(worst):
                worst = alert.severity
        if good_ratio < spec.objective:
            worst = "burning"
        return SloStatus(
            name=spec.name,
            verdict=worst,
            good_ratio=good_ratio,
            objective=spec.objective,
            window=spec.window,
            events=window_total,
            bad=window_bad,
            budget_consumed=budget_consumed,
            alerts=tuple(alerts),
            at=at,
        )

    def report(self) -> list[SloStatus]:
        """Every spec's status, sorted by name."""
        return [self.status(spec.name) for spec in self.specs()]

    def verdict(self) -> str:
        """The worst verdict across all specs (``ok`` with none)."""
        worst = "ok"
        for status in self.report():
            if VERDICTS.index(status.verdict) > VERDICTS.index(worst):
                worst = status.verdict
        return worst

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _totals(self, spec: SloSpec) -> tuple[float, float]:
        """Cumulative ``(good, total)`` events for a spec, right now."""
        good, total = self._registry.histogram_window_counts(
            spec.metric, spec.threshold, dict(spec.labels)
        )
        if spec.error_metric is not None:
            errors = self._registry.counter_matching(
                spec.error_metric, dict(spec.error_labels)
            )
            good = max(0.0, good - errors)
        return good, total

    def _baseline(self, name: str, at: float, window: float) -> _Checkpoint:
        """The newest checkpoint at or before ``at - window``.

        Falls back to an implicit zero checkpoint when history does not
        reach back that far (a partially observed window — standard for
        a freshly deployed objective).
        """
        cutoff = at - window
        baseline = _Checkpoint(at=0.0, good=0.0, total=0.0)
        with self._lock:
            for checkpoint in self._history.get(name, ()):
                if checkpoint.at <= cutoff:
                    baseline = checkpoint
                else:
                    break
        return baseline

    def _window_delta(
        self, spec: SloSpec, good: float, total: float, at: float, window: float
    ) -> tuple[float, float]:
        """``(bad, total)`` events inside the trailing ``window``."""
        baseline = self._baseline(spec.name, at, window)
        window_total = max(0.0, total - baseline.total)
        window_good = max(0.0, good - baseline.good)
        return max(0.0, window_total - window_good), window_total

    def _burn_rate(
        self, spec: SloSpec, good: float, total: float, at: float, window: float
    ) -> float:
        bad, window_total = self._window_delta(spec, good, total, at, window)
        if window_total == 0:
            return 0.0
        return (bad / window_total) / spec.budget

    def _prune(self, spec: SloSpec, history: deque, at: float) -> None:
        # Caller holds the lock.  Keep one checkpoint older than the
        # widest window so every baseline lookup still has an anchor.
        widest = max(
            [spec.window] + [alert.long_window for alert in spec.alerts]
        )
        cutoff = at - widest
        while len(history) > 1 and history[1].at <= cutoff:
            history.popleft()


def default_http_slos(
    hosts,
    objective: float = 0.95,
    threshold: float = 0.5,
    window: float = 3600.0,
) -> list[SloSpec]:
    """One availability+latency SLO per simulated host.

    Good events are requests that completed at or below ``threshold``
    virtual seconds and were not injected faults; the error counter is
    the client's own ``http_requests_total{status="503"}`` series.
    The default objective sits above the simulated sources' baseline
    attempt-level fault rates (up to 2%, absorbed by retries) so a
    healthy deployment reads ``ok``; tighten it per host to alert on
    the baseline noise itself.
    """
    return [
        SloSpec(
            name=f"http-{host}",
            description=f"requests to {host} fast and fault-free",
            metric="http_request_latency_seconds",
            labels=(("host", host),),
            threshold=threshold,
            objective=objective,
            window=window,
            error_metric="http_requests_total",
            error_labels=(("host", host), ("status", "503")),
        )
        for host in sorted(hosts)
    ]

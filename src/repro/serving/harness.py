"""The deterministic load harness: arrivals through the front-end.

:func:`run_load` replays a schedule of open-loop arrivals (from
:mod:`repro.serving.loadgen`) against a
:class:`~repro.serving.frontend.ServingFrontend`, modelling ``workers``
logical servers with a discrete-event loop on the virtual clock:

- at each arrival, any queued request whose server frees up first is
  served (its queue wait is the gap between admission and service
  start, its service cost the deterministic virtual seconds billed
  to the request's :class:`~repro.obs.RequestLedger`);
- then the arrival itself goes through admission — token bucket,
  bounded queue, degradation — at its scheduled virtual time.

Because service costs come from content-keyed simulated draws and
arrival times from a seeded generator, the whole run — every admit,
shed, degrade, queue wait and served latency — reproduces exactly.
``workers`` changes how fast the queue drains (and therefore what gets
shed), never what any admitted request answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.frontend import Admission, ServingFrontend
from repro.serving.loadgen import Arrival


@dataclass
class LoadReport:
    """One load run's outcome: counts, rates, and latency quantiles."""

    workers: int
    offered: int
    admitted: int
    served: int
    shed: dict[str, int]
    degraded: int
    duration: float  # virtual seconds from first arrival to last completion
    offered_qps: float
    served_qps: float
    shed_rate: float
    latency: dict[str, float]  # p50/p95/p99/mean/max over served latencies
    per_tenant: dict[str, dict[str, int]] = field(default_factory=dict)
    slo: dict | None = None
    records: list[Admission] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready summary (records omitted — they carry live objects)."""
        return {
            "workers": self.workers,
            "offered": self.offered,
            "admitted": self.admitted,
            "served": self.served,
            "shed": dict(self.shed),
            "degraded": self.degraded,
            "duration": round(self.duration, 4),
            "offered_qps": round(self.offered_qps, 4),
            "served_qps": round(self.served_qps, 4),
            "shed_rate": round(self.shed_rate, 4),
            "latency": {k: round(v, 4) for k, v in self.latency.items()},
            "per_tenant": self.per_tenant,
            "slo": self.slo,
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample (zeros when empty)."""
    ordered = sorted(latencies)
    if not ordered:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": _quantile(ordered, 0.50),
        "p95": _quantile(ordered, 0.95),
        "p99": _quantile(ordered, 0.99),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


def run_load(
    frontend: ServingFrontend,
    arrivals: list[Arrival],
    workers: int = 1,
) -> LoadReport:
    """Drive ``arrivals`` through the front-end with ``workers`` servers.

    Returns the full :class:`LoadReport`; ``report.records`` holds every
    request's :class:`~repro.serving.frontend.Admission` in completion
    order for body-level assertions.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    clock = frontend.clock
    free_at = [clock.now()] * workers
    records: list[Admission] = []
    last_completion = clock.now()

    def serve_until(now: float) -> None:
        """Start queued work on every server that frees up by ``now``."""
        nonlocal last_completion
        while True:
            server = min(range(workers), key=lambda i: (free_at[i], i))
            if free_at[server] > now:
                return
            admission = frontend.pop_queued()
            if admission is None:
                return
            start_at = max(free_at[server], admission.queued_at)
            frontend.dispatch_one(
                admission, queue_wait=start_at - admission.queued_at
            )
            free_at[server] = start_at + admission.service_seconds
            last_completion = max(last_completion, free_at[server])
            records.append(admission)

    for arrival in arrivals:
        if arrival.at > clock.now():
            clock.advance(arrival.at - clock.now())
        serve_until(arrival.at)
        admission = frontend.submit(
            arrival.method, arrival.path, arrival.body, tenant=arrival.tenant
        )
        if not admission.admitted:
            records.append(admission)
    serve_until(float("inf"))
    # Let the clock catch up to the modelled completion time so bucket
    # refills and SLO windows see the full span of the run.
    if last_completion > clock.now():
        clock.advance(last_completion - clock.now())

    served = [r for r in records if r.admitted and r.response is not None]
    shed: dict[str, int] = {}
    degraded = 0
    for record in records:
        if record.degraded:
            degraded += 1
        elif not record.admitted and record.reason is not None:
            shed[record.reason] = shed.get(record.reason, 0) + 1
    first_at = arrivals[0].at if arrivals else 0.0
    duration = max(last_completion, arrivals[-1].at if arrivals else 0.0) - first_at
    latencies = [r.served_latency for r in served]
    stats = frontend.stats()
    slo = None
    obs = frontend.obs
    if obs is not None and getattr(obs, "slo", None) is not None and obs.slo.has_specs:
        try:
            status = obs.slo.status("serving-latency")
        except KeyError:
            status = None
        if status is not None:
            slo = status.to_dict()
    total_shed = sum(shed.values())
    return LoadReport(
        workers=workers,
        offered=len(arrivals),
        admitted=len(served),
        served=len(served),
        shed=shed,
        degraded=degraded,
        duration=duration,
        offered_qps=len(arrivals) / duration if duration > 0 else 0.0,
        served_qps=len(served) / duration if duration > 0 else 0.0,
        shed_rate=total_shed / len(arrivals) if arrivals else 0.0,
        latency=latency_summary(latencies),
        per_tenant=stats.get("tenants", {}),
        slo=slo,
        records=records,
    )

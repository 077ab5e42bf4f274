"""The admission-controlled serving front-end.

:class:`ServingFrontend` sits in front of a
:class:`~repro.api.handlers.MinaretApi` and turns "dispatch one request
at a time" into a serving story for heavy traffic:

**Bounded admission queue.**  Requests that pass admission wait in a
FIFO queue of at most ``queue_capacity`` entries; a full queue sheds
with a typed 503 envelope instead of building an unbounded backlog.

**Per-tenant token-bucket fairness.**  Every tenant (a conference, an
editor dashboard, a crawler) owns a
:class:`~repro.web.ratelimit.TokenBucket` against the deployment's
virtual clock.  A tenant that exhausts its bucket gets a typed 429 with
``retry_after`` — other tenants keep flowing.

**Graceful degradation.**  When a request would be shed but the
front-end holds a warm response for the same request (cached from an
earlier successful dispatch), it serves that instead — optionally
top-k-truncated — marked ``degraded: true``.  A bounded, slightly stale
answer beats a refusal for an interactive recommendation UI.

**Telemetry.**  Queue-depth gauges, admission/shed/degrade counters and
a served-latency histogram (in *virtual* seconds, so quantiles are
deterministic) land in the deployment's :mod:`repro.obs` registry, and
a serving-latency SLO is registered on the deployment's engine so
overload walks the ok → warn → burning verdict.

Response bodies for admitted requests are produced by the wrapped API
and are bit-identical at any worker count; the front-end only decides
*whether* a request runs, never *what* it computes.
"""

from __future__ import annotations

import copy
import json
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.api.router import ApiResponse
from repro.concurrency.executor import create_executor
from repro.obs import RequestLedger, SloSpec, get_obs
from repro.web.clock import SimulatedClock
from repro.web.ratelimit import TokenBucket

#: Routes whose successful responses may be replayed as degraded
#: answers.  Only idempotent, cacheable computations qualify — never
#: assignment (side-effect-shaped) or telemetry routes.
DEGRADABLE_PATHS = frozenset({"/api/v1/recommend", "/api/v1/expand"})

#: Metric names the front-end reports under.  The aggregate latency
#: histogram feeds the serving SLO; the per-tenant one is a separate
#: name so tenant label sets can never double-count the SLO's window.
QUEUE_DEPTH_GAUGE = "serving_queue_depth"
LATENCY_HISTOGRAM = "serving_latency_seconds"
TENANT_LATENCY_HISTOGRAM = "serving_tenant_latency_seconds"


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission budget: ``capacity`` burst, tokens/s refill."""

    capacity: float = 20.0
    refill_rate: float = 10.0

    def __post_init__(self):
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if not self.refill_rate > 0:
            raise ValueError(f"refill_rate must be > 0, got {self.refill_rate}")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the admission-controlled front-end.

    ``queue_capacity`` bounds the admitted-but-unserved backlog;
    ``default_policy`` is every unnamed tenant's token budget, overridden
    per tenant via ``tenant_policies``.  ``degraded_serving`` enables the
    warm-response fallback (truncating ranked lists to
    ``degraded_top_k``), ``warm_capacity`` bounds that response cache.
    ``shed_retry_after`` is the 503 retry hint when the queue itself is
    the bottleneck.  The ``slo_*`` fields shape the serving-latency SLO
    registered on the deployment (set ``register_slo=False`` to skip).
    """

    queue_capacity: int = 64
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    tenant_policies: tuple[tuple[str, TenantPolicy], ...] = ()
    degraded_serving: bool = True
    degraded_top_k: int | None = 3
    warm_capacity: int = 256
    shed_retry_after: float = 1.0
    register_slo: bool = True
    slo_threshold: float = 30.0
    slo_objective: float = 0.9
    slo_window: float = 3600.0

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.warm_capacity < 0:
            raise ValueError(f"warm_capacity must be >= 0, got {self.warm_capacity}")
        if self.shed_retry_after < 0:
            raise ValueError(
                f"shed_retry_after must be >= 0, got {self.shed_retry_after}"
            )
        if self.degraded_top_k is not None and self.degraded_top_k < 1:
            raise ValueError(
                f"degraded_top_k must be >= 1, got {self.degraded_top_k}"
            )

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The admission budget for one tenant name."""
        for name, policy in self.tenant_policies:
            if name == tenant:
                return policy
        return self.default_policy


def serving_slo(config: ServingConfig) -> SloSpec:
    """The front-end's served-latency objective for the SLO engine."""
    return SloSpec(
        name="serving-latency",
        description="admitted requests served within the latency budget",
        metric=LATENCY_HISTOGRAM,
        threshold=config.slo_threshold,
        objective=config.slo_objective,
        window=config.slo_window,
    )


@dataclass
class Admission:
    """One submitted request's fate.

    ``admitted`` requests carry ``response=None`` until a worker serves
    them (:meth:`ServingFrontend.drain` / :meth:`dispatch_one`); shed
    and degraded requests carry their envelope immediately.
    """

    method: str
    path: str
    body: dict | None
    tenant: str
    admitted: bool
    response: ApiResponse | None = None
    degraded: bool = False
    reason: str | None = None  # rate_limited | queue_full (sheds/degrades)
    retry_after: float | None = None
    queued_at: float = 0.0
    service_seconds: float = 0.0  # virtual cost of the dispatch itself
    served_latency: float = 0.0  # queue wait + service (virtual seconds)
    #: Set once a worker has finished dispatching this admission —
    #: waiters (``ServingFrontend.handle``) block on it when a racing
    #: drain took the admission out of the queue before they could.
    done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def status(self) -> int | None:
        """The response status, once one exists."""
        return self.response.status if self.response is not None else None


def request_key(method: str, path: str, body: dict | None) -> str:
    """Canonical cache key for one request's content."""
    return json.dumps(
        [method.upper(), path, body or {}], sort_keys=True, separators=(",", ":")
    )


def canonical_body(body: dict) -> dict:
    """A response body stripped to its deterministic payload.

    Drops the telemetry attachments — per-phase ``wall_seconds`` is
    physical time and the ``cost`` bill is ledger output — so two
    dispatches of the same request compare bit-identical regardless of
    wall-clock noise or worker count.  Everything else (rankings,
    scores, expansions, verification) is the product and must match
    exactly.
    """
    stripped = {k: v for k, v in body.items() if k not in ("phases", "cost")}
    return copy.deepcopy(stripped)


class ServingFrontend:
    """Admission control, fairness and degradation over one API.

    Thread-safe: many client threads may :meth:`submit` concurrently
    while workers :meth:`drain`.  All admission arithmetic runs against
    ``clock`` — by default the deployment's own virtual clock — so
    every shed/admit decision is deterministic and tests never sleep.

    Example
    -------
    >>> from repro.web.clock import SimulatedClock
    >>> class Echo:
    ...     def handle(self, method, path, body=None):
    ...         return ApiResponse(200, {"echo": path})
    >>> front = ServingFrontend(
    ...     Echo(),
    ...     ServingConfig(
    ...         queue_capacity=2,
    ...         default_policy=TenantPolicy(capacity=1, refill_rate=1.0),
    ...         degraded_serving=False,
    ...         register_slo=False,
    ...     ),
    ...     clock=SimulatedClock(),
    ... )
    >>> front.handle("GET", "/api/v1/health").status
    200
    >>> front.handle("GET", "/api/v1/health").status  # bucket drained
    429
    >>> front.clock.advance(1.0)
    >>> front.handle("GET", "/api/v1/health").status  # refilled
    200
    """

    def __init__(
        self,
        api,
        config: ServingConfig | None = None,
        clock: SimulatedClock | None = None,
    ):
        self._api = api
        self._config = config or ServingConfig()
        sources = getattr(api, "sources", None)
        self._clock = clock or getattr(sources, "clock", None) or SimulatedClock()
        self._obs = getattr(api, "obs", None) or get_obs()
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._queue: deque[Admission] = deque()
        self._warm: OrderedDict[str, dict] = OrderedDict()
        self._counts = {
            "submitted": 0,
            "admitted": 0,
            "served": 0,
            "degraded": 0,
        }
        self._shed: dict[str, int] = {}
        self._tenants: dict[str, dict[str, int]] = {}
        if self._config.register_slo and hasattr(self._obs, "slo"):
            self._obs.slo.add(serving_slo(self._config))
        attach = getattr(api, "attach_serving", None)
        if attach is not None:
            attach(self)

    @property
    def clock(self) -> SimulatedClock:
        """The virtual clock admission runs against."""
        return self._clock

    @property
    def obs(self):
        """The deployment observability the front-end reports into."""
        return self._obs

    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def queue_depth(self) -> int:
        """Admitted requests currently waiting for a worker."""
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        tenant: str = "default",
    ) -> Admission:
        """Admit, degrade or shed one request.

        Returns an :class:`Admission`: shed/degraded outcomes carry
        their response immediately; admitted ones queue until a worker
        picks them up via :meth:`drain` (or :meth:`handle` for the
        inline single-request path).
        """
        self._count(tenant, "submitted")
        self._obs.inc("serving_requests_total", tenant=tenant)
        bucket = self._bucket_for(tenant)
        if not bucket.try_acquire():
            retry_after = bucket.time_until_available()
            return self._pressure_response(
                method, path, body, tenant, "rate_limited", 429, retry_after
            )
        admission = Admission(
            method=method.upper(),
            path=path,
            body=body,
            tenant=tenant,
            admitted=True,
            queued_at=self._clock.now(),
        )
        # Capacity check and append are one critical section: N racing
        # submits can never jointly overshoot queue_capacity.  The depth
        # gauge is published under the same lock so it can only ever
        # move monotonically with the queue it describes.
        with self._lock:
            queue_full = len(self._queue) >= self._config.queue_capacity
            if not queue_full:
                self._queue.append(admission)
                self._obs.gauge(QUEUE_DEPTH_GAUGE, len(self._queue))
        if queue_full:
            # The tenant got no service, so it keeps its rate budget:
            # without the refund an overloaded queue would burn tokens
            # and then 429 the very retry the 503 hint asked for.
            bucket.refund()
            return self._pressure_response(
                method,
                path,
                body,
                tenant,
                "queue_full",
                503,
                self._config.shed_retry_after,
            )
        self._count(tenant, "admitted")
        self._obs.inc("serving_admitted_total", tenant=tenant)
        return admission

    def handle(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        tenant: str = "default",
    ) -> ApiResponse:
        """The drop-in replacement for ``MinaretApi.handle``.

        One request straight through admission: shed and degraded
        outcomes return their envelope, admitted ones are served
        immediately (FIFO — anything already queued ahead is served
        first so the single-caller path can never starve the queue).
        If a concurrently running drain already took this admission
        out of the queue, wait for that worker to finish it — handle()
        always returns a real :class:`~repro.api.router.ApiResponse`.
        """
        admission = self.submit(method, path, body, tenant=tenant)
        if not admission.admitted:
            return admission.response
        self.drain()
        admission.done.wait()
        return admission.response

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------

    def drain(self, workers: int = 1) -> list[Admission]:
        """Serve everything queued through ``workers`` pool workers.

        Responses land on each admission (input order preserved) and
        are returned.  Bodies are bit-identical at any worker count —
        the wrapped pipeline guarantees it.
        """
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
            self._obs.gauge(QUEUE_DEPTH_GAUGE, 0)
        if not batch:
            return []
        executor = create_executor(workers)
        executor.map(self.dispatch_one, batch)
        return batch

    def pop_queued(self) -> Admission | None:
        """Take the queue head (the load harness's worker-pull path)."""
        with self._lock:
            admission = self._queue.popleft() if self._queue else None
            if admission is not None:
                self._obs.gauge(QUEUE_DEPTH_GAUGE, len(self._queue))
        return admission

    def dispatch_one(self, admission: Admission, queue_wait: float = 0.0) -> Admission:
        """Serve one admitted request through the wrapped API.

        ``queue_wait`` is the virtual time the request sat admitted
        (the load harness computes it from its server model); the
        dispatch's own virtual cost is the virtual time billed to a
        :class:`~repro.obs.RequestLedger` around it, so the served
        latency is deterministic at any worker count or interleaving.
        """
        try:
            with RequestLedger(label=f"serving {admission.path}") as ledger:
                response = self._api.handle(
                    admission.method, admission.path, admission.body
                )
            admission.response = response
            admission.service_seconds = ledger.virtual_seconds
            admission.served_latency = queue_wait + ledger.virtual_seconds
            self._count(admission.tenant, "served")
            self._obs.inc(
                "serving_served_total",
                tenant=admission.tenant,
                status=str(response.status),
            )
            self._obs.observe(LATENCY_HISTOGRAM, admission.served_latency)
            self._obs.observe(
                TENANT_LATENCY_HISTOGRAM,
                admission.served_latency,
                tenant=admission.tenant,
            )
            if response.ok and admission.path in DEGRADABLE_PATHS:
                self._warm_store(
                    request_key(admission.method, admission.path, admission.body),
                    response.body,
                )
        finally:
            # Always release waiters (handle() blocks on this even when
            # the wrapped API raised) — a hung client is worse than a
            # propagated exception.
            admission.done.set()
        return admission

    # ------------------------------------------------------------------
    # Pressure handling
    # ------------------------------------------------------------------

    def _pressure_response(
        self,
        method: str,
        path: str,
        body: dict | None,
        tenant: str,
        reason: str,
        status: int,
        retry_after: float,
    ) -> Admission:
        degraded_body = self._degraded_lookup(method, path, body)
        if degraded_body is not None:
            degraded_body["degraded"] = True
            degraded_body["degraded_reason"] = reason
            self._count(tenant, "degraded")
            self._obs.inc("serving_degraded_total", tenant=tenant, reason=reason)
            admission = Admission(
                method=method.upper(),
                path=path,
                body=body,
                tenant=tenant,
                admitted=False,
                degraded=True,
                reason=reason,
                response=ApiResponse(200, degraded_body),
            )
            admission.done.set()
            return admission
        retry_after = round(max(0.0, retry_after), 6)
        with self._lock:
            self._shed[reason] = self._shed.get(reason, 0) + 1
        self._count(tenant, "shed")
        self._obs.inc(
            "serving_shed_total", tenant=tenant, reason=reason, status=str(status)
        )
        envelope = {
            "error": (
                f"tenant {tenant!r} over rate limit"
                if reason == "rate_limited"
                else "admission queue full"
            ),
            "reason": reason,
            "tenant": tenant,
            "retry_after": retry_after,
        }
        admission = Admission(
            method=method.upper(),
            path=path,
            body=body,
            tenant=tenant,
            admitted=False,
            reason=reason,
            retry_after=retry_after,
            response=ApiResponse(status, envelope),
        )
        admission.done.set()
        return admission

    def _degraded_lookup(
        self, method: str, path: str, body: dict | None
    ) -> dict | None:
        """A warm response body to degrade onto, or ``None``.

        Copies the cached body (callers may mutate their response) and
        truncates ranked recommendation lists to ``degraded_top_k`` —
        the bounded-answer-beats-refusal tradeoff.
        """
        if not self._config.degraded_serving or path not in DEGRADABLE_PATHS:
            return None
        key = request_key(method, path, body)
        with self._lock:
            cached = self._warm.get(key)
            if cached is None:
                return None
            self._warm.move_to_end(key)
            warm = copy.deepcopy(cached)
        top_k = self._config.degraded_top_k
        if top_k is not None and isinstance(warm.get("recommendations"), list):
            warm["recommendations"] = warm["recommendations"][:top_k]
        return warm

    def _warm_store(self, key: str, body: dict) -> None:
        if self._config.warm_capacity <= 0:
            return
        with self._lock:
            self._warm[key] = canonical_body(body)
            self._warm.move_to_end(key)
            while len(self._warm) > self._config.warm_capacity:
                self._warm.popitem(last=False)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _bucket_for(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                policy = self._config.policy_for(tenant)
                bucket = TokenBucket(
                    capacity=policy.capacity,
                    refill_rate=policy.refill_rate,
                    clock=self._clock,
                )
                self._buckets[tenant] = bucket
            return bucket

    def _count(self, tenant: str, key: str) -> None:
        with self._lock:
            if key in self._counts:
                self._counts[key] += 1
            per_tenant = self._tenants.setdefault(
                tenant,
                {"submitted": 0, "admitted": 0, "served": 0, "shed": 0, "degraded": 0},
            )
            per_tenant[key] = per_tenant.get(key, 0) + 1

    def stats(self) -> dict:
        """The serving snapshot ``GET /api/v1/serving`` reports."""
        with self._lock:
            counts = dict(self._counts)
            shed = dict(self._shed)
            tenants = {
                name: dict(per_tenant)
                for name, per_tenant in sorted(self._tenants.items())
            }
            depth = len(self._queue)
            warm_entries = len(self._warm)
            buckets = dict(self._buckets)
        for name, bucket in sorted(buckets.items()):
            tenants.setdefault(name, {})["available_tokens"] = round(
                bucket.available(), 6
            )
        stats = self._obs.metrics.histogram_stats(LATENCY_HISTOGRAM)
        latency = (
            {q: stats.get(q) for q in ("p50", "p95", "p99")} if stats else {}
        )
        return {
            "queue_depth": depth,
            "queue_capacity": self._config.queue_capacity,
            "warm_entries": warm_entries,
            "shed": shed,
            "latency": latency,
            **counts,
            "tenants": tenants,
        }

"""The simulated HTTP layer.

A :class:`SimulatedHttpClient` plays the role of ``requests`` in the
original system: callers issue GETs against host/path/params, the client
resolves the host to a registered endpoint callable, and on the way
applies everything a real scrape suffers — latency (advancing the
virtual clock), per-host rate limits and injected transient faults.

Responses carry JSON-compatible payloads rather than HTML: the original
MINARET immediately parses scraped pages into structured records, and
simulating the markup layer would add fragility without exercising any
additional pipeline behaviour (every source already has its own response
schema, which is the part that matters).

Concurrency and determinism
---------------------------
The client is safe to hammer from a worker pool: per-host statistics and
the trace ring mutate under one lock, the clock and token buckets guard
themselves, and — crucially — latency and fault draws are keyed by
**request content and attempt number**, not by arrival order.  The same
logical request therefore draws the same latency and the same fate
whether it is issued first, last, or concurrently with fifty others,
which is what makes parallel pipeline runs reproduce sequential output
exactly.
"""

from __future__ import annotations

import math
import threading
import time
import zlib
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs import get_obs, label_key
from repro.obs.ledger import charge_http, charge_wait
from repro.obs.metrics import LabelKey
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy, unit_draw
from repro.web.ratelimit import TokenBucket

Params = Mapping[str, object]
Endpoint = Callable[["HttpRequest"], object]


@dataclass(frozen=True)
class HttpRequest:
    """An immutable GET request: host, path and query parameters."""

    host: str
    path: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def create(cls, host: str, path: str, params: Params | None = None) -> "HttpRequest":
        """Build a request with params normalized to a sorted tuple (hashable)."""
        items = tuple(sorted((params or {}).items()))
        return cls(host=host, path=path, params=items)

    def param(self, name: str, default: object = None) -> object:
        """Fetch a single query parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def cache_key(self) -> tuple:
        """Canonical key identifying this request for response caching."""
        return (self.host, self.path, self.params)

    def ordinal(self, attempt: int = 1) -> int:
        """A stable 1-based ordinal keying this request's RNG draws.

        Derived from the request content plus the attempt number, so a
        retry draws differently from the first try, but the *k*-th
        attempt at one logical request always draws the same — on any
        thread, under any interleaving.
        """
        digest = zlib.crc32(repr((self.host, self.path, self.params)).encode())
        return (digest & 0x3FFFFFF) * 64 + attempt


@dataclass(frozen=True)
class HttpResponse:
    """A completed response: status, payload, and the latency it cost."""

    status: int
    payload: object
    latency: float
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the status is a 2xx."""
        return 200 <= self.status < 300


class HttpError(Exception):
    """Base class for simulated HTTP failures; carries the status code."""

    status = 500

    def __init__(self, request: HttpRequest, message: str):
        super().__init__(f"{message} ({request.host}{request.path})")
        self.request = request


class RateLimitedError(HttpError):
    """HTTP 429 — the host's token bucket was empty."""

    status = 429

    def __init__(self, request: HttpRequest, retry_after: float):
        super().__init__(request, f"rate limited, retry after {retry_after:.3f}s")
        self.retry_after = retry_after


class ServiceUnavailableError(HttpError):
    """HTTP 503 — injected transient fault."""

    status = 503

    def __init__(self, request: HttpRequest):
        super().__init__(request, "service unavailable (transient)")


class NotFoundError(HttpError):
    """HTTP 404 — the endpoint rejected the path or entity id."""

    status = 404

    def __init__(self, request: HttpRequest, message: str = "not found"):
        super().__init__(request, message)


@dataclass
class LatencyModel:
    """Per-request latency: ``base + U(0, jitter)`` seconds, seeded.

    Real scholarly sites differ wildly (DBLP's API is fast; Scholar is
    slow and defensive), so each registered host gets its own model.

    Each draw is a pure function of (seed, ordinal), so concurrent runs
    charge identical latencies whatever the arrival order.
    """

    base: float = 0.05
    jitter: float = 0.02
    seed: int = 0

    def __post_init__(self):
        # NaN or inf would poison the shared clock on the first request.
        if not all(math.isfinite(v) and v >= 0 for v in (self.base, self.jitter)):
            raise ValueError(
                "latency parameters must be finite and non-negative, "
                f"got base={self.base}, jitter={self.jitter}"
            )

    def sample(self, ordinal: int) -> float:
        """The latency of request ``ordinal``: pure and stateless."""
        if self.jitter == 0:
            return self.base
        # random.uniform(0, j) is 0 + (j - 0) * random(), so this equals
        # the uniform draw exactly.
        return self.base + self.jitter * unit_draw(self.seed, ordinal)


@dataclass
class HostStats:
    """Per-host request accounting (feeds EXP-SCALE).

    Latency is accumulated in integer nanoseconds: integer addition is
    exact and order-independent, so parallel runs — where requests
    complete in nondeterministic order — report byte-identical totals
    instead of drifting by an ULP the way float ``+=`` does.
    """

    requests: int = 0
    rate_limited: int = 0
    faults: int = 0
    not_found: int = 0
    latency_ns: int = 0

    @property
    def total_latency(self) -> float:
        """Virtual seconds spent waiting on responses at this host."""
        return self.latency_ns / 1_000_000_000


@dataclass(frozen=True)
class RequestTrace:
    """One traced request: what was asked, what came back, when."""

    host: str
    path: str
    params: tuple[tuple[str, object], ...]
    status: int
    latency: float
    at: float


#: The statuses an attempt can end with; each host gets one
#: ``http_requests_total`` key per status.
_STATUSES = (200, 404, 429, 503)


class _Host(NamedTuple):
    """A registered host: its endpoint, behaviour models and metric keys."""

    endpoint: Endpoint
    latency: LatencyModel
    bucket: TokenBucket | None
    faults: FaultPolicy
    latency_key: LabelKey
    status_keys: dict[int, LabelKey]


class SimulatedHttpClient:
    """Routes requests to registered endpoints with realistic failure modes.

    ``wall_latency_scale`` optionally converts a fraction of each
    request's *virtual* latency into a real ``time.sleep`` — zero (the
    default) for instant tests, a small positive value for benchmarks
    that want parallelism to buy real wall-clock time the way network
    I/O does.  It never affects payloads, virtual time, or accounting.

    Example
    -------
    >>> clock = SimulatedClock()
    >>> client = SimulatedHttpClient(clock)
    >>> client.register_host("dblp.example", lambda req: {"hi": req.param("q")})
    >>> client.get("dblp.example", "/search", {"q": "rdf"}).payload
    {'hi': 'rdf'}
    """

    def __init__(
        self,
        clock: SimulatedClock,
        trace_capacity: int = 0,
        wall_latency_scale: float = 0.0,
    ):
        if wall_latency_scale < 0:
            raise ValueError(
                f"wall_latency_scale must be >= 0, got {wall_latency_scale}"
            )
        self._clock = clock
        self._hosts: dict[str, _Host] = {}
        self.stats: dict[str, HostStats] = {}
        # Plain rows; traces() builds the RequestTrace records on read.
        self._traces: deque[tuple] | None = (
            deque(maxlen=trace_capacity) if trace_capacity > 0 else None
        )
        self._wall_latency_scale = wall_latency_scale
        self._lock = threading.Lock()

    @property
    def clock(self) -> SimulatedClock:
        """The virtual clock latencies are charged against."""
        return self._clock

    def register_host(
        self,
        host: str,
        endpoint: Endpoint,
        latency: LatencyModel | None = None,
        rate_limit: TokenBucket | None = None,
        faults: FaultPolicy | None = None,
    ) -> None:
        """Attach an endpoint callable and its behaviour models to a host.

        The endpoint receives the :class:`HttpRequest` and returns the
        JSON payload; raising :class:`NotFoundError` (or ``KeyError``,
        which is translated) produces a 404.
        """
        entry = _Host(
            endpoint,
            latency or LatencyModel(),
            rate_limit,
            faults or FaultPolicy.never(),
            label_key(host=host),
            {status: label_key(host=host, status=status) for status in _STATUSES},
        )
        with self._lock:
            if host in self._hosts:
                raise ValueError(f"host already registered: {host!r}")
            self._hosts[host] = entry
            self.stats[host] = HostStats()

    def hosts(self) -> list[str]:
        """All registered host names."""
        with self._lock:
            return list(self._hosts)

    def set_fault_policy(self, host: str, faults: FaultPolicy) -> None:
        """Swap a registered host's fault policy mid-run.

        Models a source degrading (or recovering) while the deployment
        is live — the degradation ramp the SLO scenario drives.  Only
        the fate of *future* ordinals changes; latency models, rate
        limits and accumulated statistics stay put.
        """
        with self._lock:
            if host not in self._hosts:
                raise ValueError(f"host not registered: {host!r}")
            self._hosts[host] = self._hosts[host]._replace(faults=faults)

    def replace_endpoint(self, host: str, endpoint: Endpoint) -> None:
        """Swap a registered host's endpoint, keeping its behaviour models.

        Models the host re-indexing its content: latency, rate limits,
        fault behaviour and accumulated statistics are unchanged — only
        the answers are new.
        """
        with self._lock:
            if host not in self._hosts:
                raise ValueError(f"host not registered: {host!r}")
            self._hosts[host] = self._hosts[host]._replace(endpoint=endpoint)

    def get(
        self,
        host: str,
        path: str,
        params: Params | None = None,
        attempt: int = 1,
        request: HttpRequest | None = None,
    ) -> HttpResponse:
        """Issue a GET; raises typed :class:`HttpError` subclasses on failure.

        Every attempt — successful or not — advances the virtual clock
        by a sampled latency and is recorded in :attr:`stats`.
        ``attempt`` is the caller's retry counter (1-based); together
        with the request content it keys the latency and fault draws.
        ``request``, when given, is the already built request for
        ``host``, ``path`` and ``params``, so a caller that retries
        builds it once.
        """
        if request is None:
            request = HttpRequest.create(host, path, params)
        with self._lock:
            entry = self._hosts.get(host)
            if entry is None:
                raise NotFoundError(request, f"unknown host {host!r}")
            stats = self.stats[host]
        ordinal = request.ordinal(attempt)
        latency = entry.latency.sample(ordinal)
        self._clock.advance(latency)
        with self._lock:
            stats.requests += 1
            stats.latency_ns += round(latency * 1_000_000_000)
        obs = get_obs()
        obs.observe_key("http_request_latency_seconds", entry.latency_key, latency)
        if self._wall_latency_scale > 0:
            time.sleep(latency * self._wall_latency_scale)
        bucket = entry.bucket
        if bucket is not None and not bucket.try_acquire():
            retry_after = bucket.time_until_available()
            with self._lock:
                stats.rate_limited += 1
            self._finish(obs, entry, request, 429, latency)
            obs.emit(
                "rate_limited",
                clock=self._clock,
                host=host,
                path=path,
                attempt=attempt,
                retry_after=retry_after,
            )
            raise RateLimitedError(request, retry_after)
        if entry.faults.decide(ordinal):
            with self._lock:
                stats.faults += 1
            self._finish(obs, entry, request, 503, latency)
            obs.emit(
                "fault_injected",
                clock=self._clock,
                host=host,
                path=path,
                attempt=attempt,
            )
            raise ServiceUnavailableError(request)
        try:
            payload = entry.endpoint(request)
        except NotFoundError:
            with self._lock:
                stats.not_found += 1
            self._finish(obs, entry, request, 404, latency)
            raise
        except KeyError as exc:
            with self._lock:
                stats.not_found += 1
            self._finish(obs, entry, request, 404, latency)
            raise NotFoundError(request, f"not found: {exc}") from exc
        self._finish(obs, entry, request, 200, latency)
        return HttpResponse(status=200, payload=payload, latency=latency)

    def sleep(self, seconds: float) -> None:
        """Advance the clock for a modelled wait, charging active ledgers.

        The crawler routes its backoff and rate-limit waits through here
        so phase reports attribute the waiting to the run that waited.
        """
        self._clock.sleep(seconds)
        charge_wait(seconds)
        get_obs().observe("throttle_wait_seconds", seconds)

    def total_requests(self) -> int:
        """Requests issued across all hosts."""
        with self._lock:
            return sum(s.requests for s in self.stats.values())

    def total_latency(self) -> float:
        """Virtual seconds spent waiting on responses, across all hosts."""
        with self._lock:
            return sum(s.latency_ns for s in self.stats.values()) / 1_000_000_000

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    @property
    def tracing_enabled(self) -> bool:
        """Whether request tracing is currently active."""
        return self._traces is not None

    @property
    def trace_capacity(self) -> int:
        """The trace ring's capacity (0 when tracing is off)."""
        with self._lock:
            return self._traces.maxlen if self._traces is not None else 0

    def enable_tracing(self, capacity: int = 256) -> None:
        """Turn the trace ring on after construction (idempotent).

        A client built with ``trace_capacity=0`` records nothing, which
        leaves every trace endpoint permanently empty — service setups
        (the API) call this to get a bounded ring without re-deploying.
        An already-active ring is kept, traces and all.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            if self._traces is None:
                self._traces = deque(maxlen=capacity)

    def traces(self) -> list[RequestTrace]:
        """Recent request traces, oldest first (empty unless enabled)."""
        if self._traces is None:
            return []
        with self._lock:
            rows = list(self._traces)
        return [RequestTrace(*row) for row in rows]

    def clear_traces(self) -> None:
        """Drop all recorded traces."""
        if self._traces is not None:
            with self._lock:
                self._traces.clear()

    def _finish(
        self, obs, entry: _Host, request: HttpRequest, status: int, latency: float
    ) -> None:
        """Record one completed attempt: per-host metrics, ledgers, trace ring."""
        obs.inc_key("http_requests_total", entry.status_keys[status])
        charge_http(request.host, status, latency)
        if self._traces is None:
            return
        with self._lock:
            self._traces.append(
                (request.host, request.path, request.params, status, latency, self._clock.now())
            )

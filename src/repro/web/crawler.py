"""The retrying, caching crawler that the extraction phase drives.

Wraps :class:`~repro.web.http.SimulatedHttpClient` with the policies any
production scraper needs: bounded retries with exponential backoff on
transient failures (503), rate-limit-aware waiting (429 honours the
bucket's retry-after), and an optional TTL response cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs import get_obs
from repro.web.cache import TTLCache
from repro.web.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    NotFoundError,
    Params,
    RateLimitedError,
    ServiceUnavailableError,
    SimulatedHttpClient,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry tunables.

    Attributes
    ----------
    max_attempts:
        Total tries per request, including the first.
    base_backoff:
        First backoff delay in virtual seconds; doubles per retry.
    max_backoff:
        Backoff ceiling.
    """

    max_attempts: int = 4
    base_backoff: float = 0.1
    max_backoff: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ValueError("need 0 <= base_backoff <= max_backoff")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.base_backoff * (2 ** (attempt - 1)), self.max_backoff)


class CrawlError(Exception):
    """A request failed even after exhausting retries."""

    def __init__(self, host: str, path: str, attempts: int, last: HttpError):
        super().__init__(
            f"giving up on {host}{path} after {attempts} attempts: {last}"
        )
        self.host = host
        self.path = path
        self.attempts = attempts
        self.last = last


class Crawler:
    """Cached, retrying GETs over the simulated web.

    Example
    -------
    >>> from repro.web.clock import SimulatedClock
    >>> clock = SimulatedClock()
    >>> client = SimulatedHttpClient(clock)
    >>> client.register_host("x", lambda req: {"ok": True})
    >>> Crawler(client).fetch("x", "/p").payload
    {'ok': True}
    """

    def __init__(
        self,
        client: SimulatedHttpClient,
        retry: RetryPolicy | None = None,
        cache: TTLCache | None = None,
    ):
        self._client = client
        self._retry = retry or RetryPolicy()
        self._cache = cache
        self._lock = threading.Lock()
        self.fetches = 0
        self.cache_hits = 0
        self.retries = 0

    @property
    def client(self) -> SimulatedHttpClient:
        """The underlying HTTP client."""
        return self._client

    @property
    def cache(self) -> TTLCache | None:
        """The response cache, when one was configured."""
        return self._cache

    def fetch(self, host: str, path: str, params: Params | None = None) -> HttpResponse:
        """GET with caching and retries; raises :class:`CrawlError` on defeat.

        404s are *not* retried — a missing profile is a semantic answer,
        not a transient fault — and propagate as-is.  Backoff waits go
        through :meth:`SimulatedHttpClient.sleep`, which bills them to
        the active ledgers.
        """
        with self._lock:
            self.fetches += 1
        # One request object per fetch: it keys the cache and every attempt.
        request = HttpRequest.create(host, path, params)
        cache_key = None
        if self._cache is not None:
            cache_key = request.cache_key()
            cached = self._cache.get(cache_key)
            if cached is not None:
                with self._lock:
                    self.cache_hits += 1
                return HttpResponse(
                    status=200, payload=cached, latency=0.0, from_cache=True
                )
        last_error: HttpError | None = None
        for attempt in range(1, self._retry.max_attempts + 1):
            try:
                response = self._client.get(
                    host, path, params, attempt=attempt, request=request
                )
            except RateLimitedError as exc:
                last_error = exc
                if attempt == self._retry.max_attempts:
                    break
                wait = max(exc.retry_after, self._retry.backoff_for(attempt))
                self._note_retry(host, path, attempt, wait, status=429)
                self._client.sleep(wait)
            except ServiceUnavailableError as exc:
                last_error = exc
                if attempt == self._retry.max_attempts:
                    break
                wait = self._retry.backoff_for(attempt)
                self._note_retry(host, path, attempt, wait, status=503)
                self._client.sleep(wait)
            else:
                if self._cache is not None and cache_key is not None:
                    self._cache.put(cache_key, response.payload)
                return response
        assert last_error is not None
        get_obs().emit(
            "crawl_abandoned",
            clock=self._client.clock,
            host=host,
            path=path,
            attempts=self._retry.max_attempts,
            status=last_error.status,
        )
        raise CrawlError(host, path, self._retry.max_attempts, last_error)

    def _note_retry(
        self, host: str, path: str, attempt: int, backoff: float, status: int
    ) -> None:
        with self._lock:
            self.retries += 1
        obs = get_obs()
        obs.inc("crawler_retries_total", host=host, status=str(status))
        obs.emit(
            "http_retry",
            clock=self._client.clock,
            host=host,
            path=path,
            attempt=attempt,
            backoff=backoff,
            status=status,
        )

    def fetch_or_none(
        self, host: str, path: str, params: Params | None = None
    ) -> HttpResponse | None:
        """Like :meth:`fetch` but maps 404 to ``None``.

        The extraction phase treats "this scholar has no Publons profile"
        as ordinary partial coverage, not an error.
        """
        try:
            return self.fetch(host, path, params)
        except NotFoundError:
            return None

    def cache_hit_rate(self) -> float:
        """Fraction of fetches served from cache."""
        if self.fetches == 0:
            return 0.0
        return self.cache_hits / self.fetches

"""Token-bucket rate limiting against the virtual clock.

Scholarly sites throttle scrapers aggressively (Google Scholar famously
so — the repro_why calibration note calls its scraping "fragile").  Each
simulated service owns a bucket; exceeding it yields HTTP 429 responses
the crawler must back off from, exactly the failure mode a live MINARET
deployment has to engineer around.
"""

from __future__ import annotations

import threading

from repro.web.clock import SimulatedClock


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``refill_rate`` tokens/s.

    Thread-safe: refill-and-take is one atomic step, so hammering
    threads can never jointly overdraw the bucket.

    A bucket counts nothing itself: a host's denials show as its 429s in
    ``http_requests_total``.  A tenant's are ``serving_shed_total`` plus
    ``serving_degraded_total``, both with ``reason="rate_limited"``: the
    front-end answers a denied request from its warm store when it can.

    Example
    -------
    >>> clock = SimulatedClock()
    >>> bucket = TokenBucket(capacity=2, refill_rate=1.0, clock=clock)
    >>> bucket.try_acquire(), bucket.try_acquire(), bucket.try_acquire()
    (True, True, False)
    >>> clock.advance(1.0); bucket.try_acquire()
    True
    """

    def __init__(self, capacity: float, refill_rate: float, clock: SimulatedClock):
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not refill_rate > 0:
            raise ValueError(f"refill_rate must be > 0, got {refill_rate}")
        self._capacity = float(capacity)
        self._refill_rate = float(refill_rate)
        self._clock = clock
        self._tokens = float(capacity)
        self._last_refill = clock.now()
        self._lock = threading.Lock()

    @property
    def capacity(self) -> float:
        """Maximum burst size."""
        return self._capacity

    @property
    def refill_rate(self) -> float:
        """Tokens added per virtual second."""
        return self._refill_rate

    def available(self) -> float:
        """Tokens currently available (after lazy refill)."""
        with self._lock:
            self._refill()
            return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; return whether it succeeded.

        Validation mirrors :meth:`time_until_available` exactly: a
        request for more tokens than the bucket can ever hold raises
        instead of returning ``False`` forever — an admission loop
        polling the pair sees one consistent contract, never a
        silent-spin/crash split.
        """
        self._validate(tokens)
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def refund(self, tokens: float = 1.0) -> None:
        """Return ``tokens`` to the bucket (capped at ``capacity``).

        For callers whose acquire turned out not to buy any service —
        e.g. a request that passed the rate limiter but was then shed
        because the admission queue was full.  Refunding keeps such
        tenants from being double-penalized: they already ate the 503,
        they should not also eat a 429 on the hinted retry.
        """
        self._validate(tokens)
        with self._lock:
            self._refill()
            self._tokens = min(self._capacity, self._tokens + tokens)

    def time_until_available(self, tokens: float = 1.0) -> float:
        """Virtual seconds until ``tokens`` will be available (0 if now).

        The crawler uses this to compute a Retry-After style backoff
        instead of polling.  Whenever this returns a finite bound,
        :meth:`try_acquire` for the same ``tokens`` is guaranteed to
        succeed once the clock has advanced that far (absent competing
        acquirers).
        """
        self._validate(tokens)
        with self._lock:
            self._refill()
            deficit = tokens - self._tokens
            if deficit <= 0:
                return 0.0
            return deficit / self._refill_rate

    def _validate(self, tokens: float) -> None:
        # One validation contract for try_acquire and
        # time_until_available: both reject non-positive requests and
        # requests that can never be satisfied at any future time.
        if tokens <= 0:
            raise ValueError(f"tokens must be > 0, got {tokens}")
        if tokens > self._capacity:
            raise ValueError(
                f"requested {tokens} tokens exceeds capacity {self._capacity}"
            )

    def _refill(self) -> None:
        # Caller holds self._lock.
        now = self._clock.now()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self._capacity, self._tokens + elapsed * self._refill_rate
            )
            self._last_refill = now

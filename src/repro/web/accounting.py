"""Scoped request accounting that survives concurrency.

Phase reports used to measure "requests this phase issued" as a delta of
the HTTP client's global counter, and "virtual seconds spent" as a delta
of the shared clock.  Both deltas silently break the moment two phases
run concurrently (a parallel batch of manuscripts): every run's requests
land in every other run's delta.

A :class:`RequestScope` fixes attribution.  Entering a scope pushes it
onto a :mod:`contextvars` stack; the simulated HTTP client charges every
request (and every crawler wait) to **all scopes active in the issuing
context**.  The pool executors (:mod:`repro.concurrency`) copy the
caller's context into worker threads, so work fanned out by a phase is
still charged to that phase — while a concurrent phase in a sibling
context is not.

Scopes nest: a batch-level scope around a per-phase scope sees the sum
of its phases, exactly like the old clock deltas did sequentially.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar

_ACTIVE: ContextVar[tuple["RequestScope", ...]] = ContextVar(
    "repro_request_scopes", default=()
)


class RequestScope:
    """Accumulates request count and virtual time for one unit of work.

    Thread-safe: many pool threads may charge one scope concurrently.
    Virtual time is kept in integer nanoseconds, as
    :class:`~repro.web.http.HostStats` keeps it: integer addition is
    exact, so the total does not depend on the order in which pool
    threads finish their requests.

    Example
    -------
    >>> with RequestScope() as scope:
    ...     charge_request(0.25)
    ...     charge_wait(1.0)
    >>> scope.requests, scope.virtual_seconds
    (1, 1.25)
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._lock = threading.Lock()
        self._requests = 0
        self._virtual_ns = 0
        # A stack, not a single token: a scope may be re-entered while
        # already active (it is then charged once per activation), and
        # each exit must restore exactly the matching activation.
        self._tokens: list = []

    @property
    def requests(self) -> int:
        """Requests issued while this scope was active."""
        with self._lock:
            return self._requests

    @property
    def virtual_seconds(self) -> float:
        """Virtual time charged to this scope (latencies + waits)."""
        with self._lock:
            return self._virtual_ns / 1_000_000_000

    def add_request(self, latency: float) -> None:
        """Charge one issued request and its latency."""
        with self._lock:
            self._requests += 1
            self._virtual_ns += round(latency * 1_000_000_000)

    def add_wait(self, seconds: float) -> None:
        """Charge a latency-free wait (backoff, rate-limit sleep)."""
        with self._lock:
            self._virtual_ns += round(seconds * 1_000_000_000)

    def __enter__(self) -> "RequestScope":
        self._tokens.append(_ACTIVE.set(_ACTIVE.get() + (self,)))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tokens:
            _ACTIVE.reset(self._tokens.pop())


def active_scopes() -> tuple[RequestScope, ...]:
    """The scopes active in the current context, outermost first."""
    return _ACTIVE.get()


def charge_request(latency: float) -> None:
    """Charge one request to every active scope."""
    for scope in _ACTIVE.get():
        scope.add_request(latency)


def charge_wait(seconds: float) -> None:
    """Charge a wait to every active scope."""
    for scope in _ACTIVE.get():
        scope.add_wait(seconds)

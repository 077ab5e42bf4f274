"""Singleflight call coalescing.

When a batch of manuscripts fans out over a worker pool, many tasks ask
the scholarly web the *same* question at the same moment: two papers
sharing an expanded keyword both query the interest indexes for it; two
waves both assemble the profile of a candidate they have in common.
Issuing those fetches independently multiplies request volume for no
information gain — every simulated-web decision is keyed by request
content, so the answers are guaranteed identical.

:class:`SingleFlight` collapses concurrent identical calls: the first
arrival (the *leader*) executes the loader; every later arrival for the
same key blocks on the leader's flight and receives the same outcome —
value or exception — without issuing anything.  Once a flight lands its
key is forgotten, so sequentially repeated calls re-execute (caching
across time is the profile store's job, not this class's).

Determinism: because the simulated web draws latency and faults from
request content rather than arrival order, it does not matter *which*
worker becomes leader — the draw is canonical, and every waiter fans out
a bit-identical result.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable


class _Flight:
    """One in-flight computation and its eventual outcome."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None

    def land(self, value: object = None, error: BaseException | None = None) -> None:
        self.value = value
        self.error = error
        self.done.set()

    def result(self) -> object:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SingleFlight:
    """Coalesce concurrent calls that share a key.

    Example
    -------
    >>> flight = SingleFlight()
    >>> flight.do("k", lambda: 40 + 2)
    (42, True)
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}

    def do(self, key: Hashable, loader: Callable[[], object]) -> tuple[object, bool]:
        """Run ``loader`` once per concurrent burst of callers of ``key``.

        Returns ``(outcome, leader)`` where ``leader`` tells the caller
        whether *its* invocation executed the loader (and should, e.g.,
        populate a cache) or merely joined an existing flight.  If the
        leader's loader raises, every joined caller re-raises the same
        exception.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                joined = True
            else:
                joined = False
                flight = _Flight()
                self._flights[key] = flight
        if joined:
            return flight.result(), False
        try:
            value = loader()
        except BaseException as exc:
            flight.land(error=exc)
            raise
        else:
            flight.land(value=value)
            return value, True
        finally:
            # Land *before* forgetting the key so no waiter can be left
            # holding a flight that never resolves.
            with self._lock:
                self._flights.pop(key, None)

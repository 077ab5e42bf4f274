"""Virtual time for the simulated web.

All latency, cache-TTL and backoff arithmetic in the web substrate runs
against this clock instead of the wall clock.  Experiments therefore
report deterministic *simulated* latencies, and tests never sleep.
"""

from __future__ import annotations

import math
import threading


class SimulatedClock:
    """A monotonically advancing virtual clock (seconds as float).

    Thread-safe: worker pools advance one shared clock concurrently, and
    since advances only ever add non-negative amounts, the final reading
    after a parallel stage equals the sum of everything charged —
    independent of interleaving.

    Example
    -------
    >>> clock = SimulatedClock()
    >>> clock.advance(0.25)
    >>> clock.now()
    0.25
    """

    def __init__(self, start: float = 0.0):
        if not (math.isfinite(start) and start >= 0):
            raise ValueError(f"start must be finite and >= 0, got {start}")
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward; negative or non-finite advances are rejected
        (NaN or inf would poison every later reading of the shared clock)."""
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"cannot advance clock by {seconds}")
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Alias for :meth:`advance` — reads naturally at call sites that
        model waiting (backoff, politeness delays)."""
        self.advance(seconds)

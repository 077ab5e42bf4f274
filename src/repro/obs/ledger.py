"""Per-request cost ledgers: what did *this* request spend, exactly?

Metrics answer fleet questions ("how many cache misses today"); the
ledger answers the outlier question — "this one request was slow, what
did it do?".  Entering a :class:`RequestLedger` pushes it onto a
:mod:`contextvars` stack, so everything a request causes — including
work fanned out through the worker pools, whose executors propagate
context — is charged to it, while concurrent sibling requests are not.

The ledger is the only request-cost channel.  Every pipeline phase runs
under a ledger of its own, whose request count and virtual seconds
become the phase report's, and the serving front end costs each
dispatch the same way.  The simulated HTTP client charges each attempt
once (:func:`charge_http`) and each modelled wait once
(:func:`charge_wait`).

Charged dimensions:

- simulated HTTP calls, broken down by host (count, errors, virtual
  latency);
- modelled waits (crawler backoff, rate-limit sleeps), which add to
  virtual time but belong to no host;
- response/profile cache hits and misses, by cache name;
- scoring features built vs reused, and recency-pruned candidates;
- per-phase wall + virtual time (the pipeline's phase timer reports in).

Charging is a contextvar read plus, per active ledger, a few integer
increments under its lock.  Nothing here draws randomness or touches a
clock, so attaching a ledger cannot change the run it is costing.

Example
-------
>>> with RequestLedger("demo") as ledger:
...     charge_http("dblp.example", 200, 0.05)
...     charge_wait(0.1)
...     charge_cache("crawler", hit=True)
>>> ledger.requests, ledger.virtual_seconds
(1, 0.15)
>>> ledger.to_dict()["wait_seconds"]
0.1
"""

from __future__ import annotations

import threading
from contextvars import ContextVar

_ACTIVE: ContextVar[tuple["RequestLedger", ...]] = ContextVar(
    "repro_request_ledgers", default=()
)


class RequestLedger:
    """Accumulates the itemized cost of one request; use as a context.

    Ledgers nest: an API-level ledger around a batch sees the sum of the
    per-paper ledgers inside it, and each of those the sum of its
    phases.  Thread-safe, since many pool threads may charge one ledger.
    Virtual time is kept in integer nanoseconds: integer addition is
    exact, so totals do not depend on the order pool threads finish in.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._lock = threading.Lock()
        self._http: dict[str, list] = {}  # host -> [requests, errors, latency ns]
        self._wait_ns = 0
        self._caches: dict[str, list] = {}  # name -> [hits, misses]
        self._features_built = 0
        self._features_reused = 0
        self._candidates_ranked = 0
        self._candidates_pruned = 0
        self._phases: list[dict] = []
        self._tokens: list = []

    # -- charging (called via the module-level helpers) ----------------

    def add_http(self, host: str, status: int, latency: float) -> None:
        with self._lock:
            entry = self._http.setdefault(host, [0, 0, 0])
            entry[0] += 1
            if status >= 400:
                entry[1] += 1
            entry[2] += round(latency * 1_000_000_000)

    def add_wait(self, seconds: float) -> None:
        with self._lock:
            self._wait_ns += round(seconds * 1_000_000_000)

    def add_cache(self, name: str, hit: bool, count: int = 1) -> None:
        with self._lock:
            entry = self._caches.setdefault(name, [0, 0])
            entry[0 if hit else 1] += count

    def add_features(self, built: int, reused: int) -> None:
        with self._lock:
            self._features_built += built
            self._features_reused += reused

    def add_pruning(self, ranked: int, pruned: int) -> None:
        with self._lock:
            self._candidates_ranked += ranked
            self._candidates_pruned += pruned

    def add_phase(
        self, phase: str, wall_seconds: float, virtual_seconds: float, requests: int
    ) -> None:
        with self._lock:
            self._phases.append(
                {
                    "phase": phase,
                    "wall_seconds": wall_seconds,
                    "virtual_seconds": virtual_seconds,
                    "requests": requests,
                }
            )

    # -- reading -------------------------------------------------------

    @property
    def requests(self) -> int:
        """Total simulated HTTP requests charged so far."""
        with self._lock:
            return sum(entry[0] for entry in self._http.values())

    @property
    def virtual_seconds(self) -> float:
        """Total virtual time charged: every host's latency plus waits."""
        with self._lock:
            return self._virtual_ns() / 1_000_000_000

    def _virtual_ns(self) -> int:
        return sum(entry[2] for entry in self._http.values()) + self._wait_ns

    def to_dict(self) -> dict:
        """The itemized bill, JSON-serialisable and stably ordered.

        The top-level ``virtual_seconds`` is latency plus waits, the
        quantity phase reports carry, rounded once from the exact total;
        the per-host rows are latency only.
        """
        with self._lock:
            http = {
                host: {
                    "requests": entry[0],
                    "errors": entry[1],
                    "virtual_seconds": round(entry[2] / 1_000_000_000, 6),
                }
                for host, entry in sorted(self._http.items())
            }
            caches = {
                name: {
                    "hits": entry[0],
                    "misses": entry[1],
                    "hit_rate": round(entry[0] / total, 6) if (total := entry[0] + entry[1]) else 0.0,
                }
                for name, entry in sorted(self._caches.items())
            }
            virtual_ns, wait_ns = self._virtual_ns(), self._wait_ns
            built, reused = self._features_built, self._features_reused
            ranked, pruned = self._candidates_ranked, self._candidates_pruned
            phases = [dict(phase) for phase in self._phases]
        return {
            "label": self.label,
            "requests": sum(entry["requests"] for entry in http.values()),
            "virtual_seconds": round(virtual_ns / 1_000_000_000, 6),
            "wait_seconds": round(wait_ns / 1_000_000_000, 6),
            "http": http,
            "caches": caches,
            "features": {
                "built": built,
                "reused": reused,
                "reuse_rate": (
                    round(reused / (built + reused), 4) if built + reused else 0.0
                ),
            },
            "pruning": {
                "ranked": ranked,
                "pruned": pruned,
                "prune_rate": round(pruned / ranked, 4) if ranked else 0.0,
            },
            "phases": phases,
        }

    def __enter__(self) -> "RequestLedger":
        # A token stack, not a single token: re-entry charges once per
        # activation and each exit restores the matching context.
        self._tokens.append(_ACTIVE.set(_ACTIVE.get() + (self,)))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tokens:
            _ACTIVE.reset(self._tokens.pop())


def charge_http(host: str, status: int, latency: float) -> None:
    """Charge one simulated HTTP attempt to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_http(host, status, latency)


def charge_wait(seconds: float) -> None:
    """Charge one modelled wait (backoff, throttle) to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_wait(seconds)


def charge_cache(name: str, hit: bool, count: int = 1) -> None:
    """Charge ``count`` cache lookups of one outcome to every active ledger.

    A batched read charges all its hits in one call.
    """
    for ledger in _ACTIVE.get():
        ledger.add_cache(name, hit, count)


def charge_features(built: int, reused: int) -> None:
    """Charge a feature-store compile/reuse batch to every active ledger."""
    if built == 0 and reused == 0:
        return
    for ledger in _ACTIVE.get():
        ledger.add_features(built, reused)


def charge_pruning(ranked: int, pruned: int) -> None:
    """Charge a scoring pass's prune accounting to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_pruning(ranked, pruned)


def record_phase(
    phase: str, wall_seconds: float, virtual_seconds: float, requests: int
) -> None:
    """Report one finished pipeline phase to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_phase(phase, wall_seconds, virtual_seconds, requests)

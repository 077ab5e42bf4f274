"""Per-request cost ledgers: what did *this* request spend, exactly?

Metrics answer fleet questions ("how many cache misses today"); the
ledger answers the outlier question — "this one request was slow, what
did it do?".  A :class:`RequestLedger` rides the same contextvars
channel as :class:`~repro.web.accounting.RequestScope`, so everything a
request causes — including work fanned out through the worker pools,
whose executors propagate context — is charged to it, while concurrent
sibling requests are not.

Charged dimensions:

- simulated HTTP calls, broken down by host (count, errors, virtual
  latency);
- response/profile cache hits and misses, by cache name;
- scoring features built vs reused, and recency-pruned candidates;
- per-phase wall + virtual time (the pipeline's phase timer reports in).

Charging is a handful of dict increments under a lock and only happens
while a ledger is actually active — the instrumented layers call the
module-level ``charge_*`` functions, which are a single contextvar read
plus an empty loop when nobody is listening.  Nothing here draws
randomness or touches a clock, so attaching a ledger cannot change the
run it is costing.

Example
-------
>>> with RequestLedger("demo") as ledger:
...     charge_http("dblp.example", 200, 0.05)
...     charge_cache("crawler", hit=True)
>>> ledger.to_dict()["http"]["dblp.example"]["requests"]
1
"""

from __future__ import annotations

import threading
from contextvars import ContextVar

_ACTIVE: ContextVar[tuple["RequestLedger", ...]] = ContextVar(
    "repro_request_ledgers", default=()
)


class RequestLedger:
    """Accumulates the itemized cost of one request; use as a context.

    Ledgers nest like request scopes: an API-level ledger around a
    batch sees the sum of the per-paper ledgers inside it.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._lock = threading.Lock()
        # host -> [requests, errors, latency in integer nanoseconds]; the
        # integer sum does not depend on the order requests complete in.
        self._http: dict[str, list] = {}
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

    def add_cache(self, name: str, hit: bool) -> None:
        with self._lock:
            entry = self._caches.setdefault(name, [0, 0])
            entry[0 if hit else 1] += 1

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
        """Total virtual latency charged across all hosts."""
        with self._lock:
            return sum(entry[2] for entry in self._http.values()) / 1_000_000_000

    def to_dict(self) -> dict:
        """The itemized bill, JSON-serialisable and stably ordered."""
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
            built, reused = self._features_built, self._features_reused
            ranked, pruned = self._candidates_ranked, self._candidates_pruned
            phases = [dict(phase) for phase in self._phases]
        total_requests = sum(entry["requests"] for entry in http.values())
        total_virtual = sum(entry["virtual_seconds"] for entry in http.values())
        return {
            "label": self.label,
            "requests": total_requests,
            "virtual_seconds": round(total_virtual, 6),
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


def active_ledgers() -> tuple[RequestLedger, ...]:
    """The ledgers active in the calling context, outermost first."""
    return _ACTIVE.get()


def charge_http(host: str, status: int, latency: float) -> None:
    """Charge one simulated HTTP attempt to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_http(host, status, latency)


def charge_cache(name: str, hit: bool) -> None:
    """Charge one cache lookup outcome to every active ledger."""
    for ledger in _ACTIVE.get():
        ledger.add_cache(name, hit)


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

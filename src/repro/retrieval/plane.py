"""The warm-path retrieval plane.

EXPERIMENTS.md (FIG2) shows candidate extraction dominating a
recommendation end-to-end: ~488 of ~498 requests and ~57 of ~58
simulated seconds.  The paper's on-the-fly design re-issues all of it
for every manuscript, even when manuscripts share expanded keywords and
candidate profiles — which is exactly what happens in batch assignment
and under sustained editor traffic.

:class:`RetrievalPlane` is a shared, thread-safe layer between the
extraction/track-record code and the simulated sources.  Three
cooperating pieces:

**Cross-request store.**  One TTL+LRU :class:`~repro.web.cache.TTLCache`
holding the *assembled* results of expensive fetch sequences, keyed on
the query **and the plane's epoch**.  One warm hit saves the whole
multi-request assembly, not just one HTTP response.  Its layers:

- ``scholar_interest`` and ``publons_interest`` — a source's ranked
  interest → candidate list, keyed by the normalized keyword and the
  ``limit`` it was fetched with (:mod:`repro.core.extraction`);
- ``scholar_profile`` and ``publons_candidate`` — candidate templates
  assembled across the sources;
- ``publons_summary`` — a Publons reviewer's summary;
- ``author_identity`` — a manuscript author's verification, keyed by
  the submitted author and ``use_all_sources``
  (:mod:`repro.core.identity`).  A verification where a resolver chose
  among several DBLP hits, or that lost a secondary source through
  every retry, is returned but never stored;
- ``target_venue`` — the canonical name of a typed target outlet
  (:class:`~repro.core.pipeline.Minaret`).

Stored values are shared by every request of the epoch, so no caller
may mutate them.  Loader errors are never stored.

**Singleflight coalescing.**  Concurrent identical fetches — the same
keyword across batch manuscripts, or across workers in one wave —
collapse into one in-flight request whose result fans out to every
waiter (:mod:`repro.retrieval.singleflight`).  Because the simulated
web keys its latency/fault draws by request content, the leader's draw
is canonical and rankings stay bit-identical at any worker count.  The
leader stores its value before its flight lands, and a new leader
re-checks before loading, so each key loads at most once per epoch
however the workers interleave.

**Batched wave reads.**  :meth:`RetrievalPlane.cached` serves a whole
extraction wave's warm hits in one read — one epoch read, one critical
section, one counter update per outcome — so a warm candidate or
keyword costs a lookup, not an executor task.  It counts only hits; the
caller resolves each miss through :meth:`RetrievalPlane.fetch`, which
counts it, so every lookup is counted once.

Freshness is governed by the **epoch**: :meth:`bump_epoch` (called by
:meth:`~repro.scholarly.registry.ScholarlyHub.refresh_services` when
:mod:`repro.world.dynamics` mutations are re-indexed) makes every
cached entry unreachable, so world advancement can never serve stale
profiles or rankings.  The TTL bounds staleness *within* an epoch
against the shared virtual clock, and the LRU capacity bounds the
entries held; both apply to every layer alike.

Everything is instrumented through :mod:`repro.obs`: per-layer
hit/miss/coalesce counters, a store gauge, and spans around leader
fetches.  ``GET /api/v1/metrics`` serves :meth:`stats`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Sequence

from repro.obs import get_obs
from repro.retrieval.singleflight import SingleFlight
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock


class RetrievalPlane:
    """Shared warm path for candidate retrieval and profile assembly.

    Parameters
    ----------
    clock:
        The virtual clock TTLs are measured against (the hub's).
    ttl:
        Store entry lifetime in virtual seconds, for every layer;
        ``None`` (the default) keeps entries until the epoch bumps or
        LRU evicts them.
    capacity:
        Store LRU bound, over every layer.
    name:
        Label for this plane's metrics (one per deployment).

    Example
    -------
    >>> plane = RetrievalPlane(SimulatedClock())
    >>> plane.fetch("profiles", "alice", lambda: {"name": "alice"})
    {'name': 'alice'}
    >>> plane.fetch("profiles", "alice", lambda: 1 / 0)  # served warm
    {'name': 'alice'}
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        ttl: float | None = None,
        capacity: int = 8192,
        name: str = "retrieval",
    ):
        self._clock = clock or SimulatedClock()
        self._name = name
        self._store = TTLCache(
            ttl=ttl, capacity=capacity, clock=self._clock, name=name
        )
        self._flight = SingleFlight()
        self._lock = threading.Lock()
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self._layer_counts: dict[tuple[str, str], int] = {}
        self._feature_store = None

    @classmethod
    def for_sources(
        cls,
        sources,
        ttl: float | None = None,
        capacity: int = 8192,
        name: str = "retrieval",
    ) -> "RetrievalPlane":
        """Build a plane over a source bundle and attach it to the hub.

        Uses the bundle's clock when it has one, and registers on the
        hub's plane list so
        :meth:`~repro.scholarly.registry.ScholarlyHub.refresh_services`
        bumps this plane's epoch when the world re-indexes.
        """
        plane = cls(
            clock=getattr(sources, "clock", None),
            ttl=ttl,
            capacity=capacity,
            name=name,
        )
        attach = getattr(sources, "attach_retrieval_plane", None)
        if attach is not None:
            attach(plane)
        return plane

    # ------------------------------------------------------------------
    # Epoch
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current freshness epoch."""
        with self._lock:
            return self._epoch

    @property
    def name(self) -> str:
        """The label this plane's metrics are tagged with."""
        return self._name

    @property
    def store(self) -> TTLCache:
        """The underlying store (exposed for inspection)."""
        return self._store

    def bump_epoch(self) -> int:
        """Invalidate everything: the world has visibly changed.

        Cached entries are keyed by epoch, so bumping makes them
        unreachable in O(1).  Returns the new epoch.
        """
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            feature_store = self._feature_store
        self._store.clear()
        if feature_store is not None:
            # Entries are epoch-validated anyway; dropping them now
            # frees the memory instead of waiting for LRU churn.
            feature_store.clear()
        obs = get_obs()
        obs.inc("retrieval_epoch_bumps_total", plane=self._name)
        obs.gauge("retrieval_epoch", float(epoch), plane=self._name)
        obs.emit("retrieval_epoch_bumped", clock=self._clock, plane=self._name, epoch=epoch)
        return epoch

    def feature_store(self):
        """The plane's shared scoring feature store (lazily created).

        Candidate features cached here are validated against this
        plane's epoch, so :meth:`bump_epoch` invalidates them together
        with the cached profiles they were derived from.  One store per
        plane: every pipeline attached to this plane — and therefore
        every request of an API deployment — reuses the same compiled
        features.
        """
        with self._lock:
            if self._feature_store is None:
                from repro.scoring.features import FeatureStore

                self._feature_store = FeatureStore(
                    epoch_provider=lambda: self.epoch, name=self._name
                )
            return self._feature_store

    # ------------------------------------------------------------------
    # Cached fetch (store + singleflight)
    # ------------------------------------------------------------------

    def fetch(
        self,
        layer: str,
        key: Hashable,
        loader: Callable[[], object],
        keep: Callable[[object], bool] | None = None,
    ) -> object:
        """Resolve ``key`` warm when possible, else coalesce one fetch.

        ``layer`` labels the metrics (``scholar_interest``,
        ``scholar_profile``, ...).  Loader exceptions propagate to the
        leader *and* every coalesced waiter, and nothing is cached — a
        retried request re-draws the same simulated outcome, so warm
        runs degrade exactly like cold ones.

        ``keep``, when given, decides whether a loaded value is stored.
        A value it rejects goes back to the caller that loaded it and to
        no one else: every other caller loads its own, as it would one
        at a time, so loads and requests match at any worker count.

        The leader stores its value before the flight lands, and a new
        leader first re-checks the store, counting nothing.  A caller
        whose lookup missed just before an earlier flight stored
        therefore joins that flight or finds its value — each key loads
        at most once per epoch, at any worker count.  The caller that
        ran ``loader`` counts the miss, every other one as coalesced; a
        waiter on a flight whose value ``keep`` rejected runs its own
        ``loader`` and counts as a miss.
        """
        epoch_key = (self.epoch, layer, key)
        cached = self._store.get(epoch_key)
        if cached is not None:
            self._count("hit", layer)
            return cached[0]
        rejected: list[object] = []

        def load() -> tuple[object] | None:
            with get_obs().span(
                "retrieval.fetch", clock=self._clock, plane=self._name, layer=layer
            ):
                value = loader()
            if keep is not None and not keep(value):
                rejected.append(value)
                return None
            entry = (value,)
            self._store.put(epoch_key, entry)
            return entry

        def lead() -> tuple[tuple[object] | None, bool]:
            found = self._store.peek(epoch_key)
            if found is not None:
                return found, False
            return load(), True

        (entry, loaded), leader = self._flight.do(epoch_key, lead)
        loaded = leader and loaded
        if entry is None and not loaded:
            entry, loaded = load(), True
        self._count("miss" if loaded else "coalesced", layer)
        if entry is None:
            return rejected[0]
        if loaded:
            get_obs().gauge(
                "retrieval_store_entries", float(len(self._store)), plane=self._name
            )
        return entry[0]

    def cached(self, layer: str, keys: Sequence[Hashable]) -> dict[int, object]:
        """Serve a wave's warm hits in one store read: ``{index: value}``.

        Only hits are counted here.  The caller resolves every absent
        index through :meth:`fetch`, which counts the miss where it is
        resolved — so each lookup is counted once, batched or not.
        """
        epoch = self.epoch
        entries = self._store.get_hits([(epoch, layer, key) for key in keys])
        hits = {i: entry[0] for i, entry in enumerate(entries) if entry is not None}
        if hits:
            self._count("hit", layer, len(hits))
        return hits

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, outcome: str, layer: str, n: int = 1) -> None:
        with self._lock:
            if outcome == "hit":
                self.hits += n
            elif outcome == "miss":
                self.misses += n
            else:
                self.coalesced += n
            key = (outcome, layer)
            self._layer_counts[key] = self._layer_counts.get(key, 0) + n
        metric = {
            "hit": "retrieval_hits_total",
            "miss": "retrieval_misses_total",
            "coalesced": "retrieval_coalesced_total",
        }[outcome]
        get_obs().inc(metric, n, plane=self._name, layer=layer)

    def hit_rate(self) -> float:
        """Fraction of plane lookups served without a leader fetch."""
        with self._lock:
            total = self.hits + self.misses + self.coalesced
            if total == 0:
                return 0.0
            return (self.hits + self.coalesced) / total

    def stats(self) -> dict:
        """JSON-serialisable snapshot (served by ``GET /api/v1/metrics``)."""
        with self._lock:
            layers: dict[str, dict[str, int]] = {}
            for (outcome, layer), count in sorted(self._layer_counts.items()):
                layers.setdefault(layer, {})[outcome] = count
            epoch = self._epoch
            hits, misses, coalesced = self.hits, self.misses, self.coalesced
            feature_store = self._feature_store
        total = hits + misses + coalesced
        rate = (hits + coalesced) / total if total else 0.0
        return {
            "scoring": (
                feature_store.stats() if feature_store is not None else None
            ),
            "plane": self._name,
            "epoch": epoch,
            "hits": hits,
            "misses": misses,
            "coalesced": coalesced,
            "hit_rate": round(rate, 4),
            "store_entries": len(self._store),
            "layers": layers,
        }

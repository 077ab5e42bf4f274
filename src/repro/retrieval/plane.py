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

**Cross-request profile store.**  A TTL+LRU :class:`~repro.web.cache.TTLCache`
holding the *assembled* results of expensive fetch sequences, keyed on
the query **and the plane's epoch**.  One warm hit saves the whole
multi-request assembly, not just one HTTP response.  Its layers:

- ``scholar_profile`` and ``publons_candidate`` — candidate templates
  assembled across the sources (:mod:`repro.core.extraction`);
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
leader publishes its value (store put or mirror fold) before its flight
lands, and a new leader re-checks before loading, so each key loads at
most once per epoch however the workers interleave.

**Incremental interest mirror.**  After first contact, each source's
ranked interest → candidate list is folded into a local mirror per
source, with the ``limit`` it was fetched with.  A later query for the
same keyword resolves its candidate ids locally, as a prefix of the
stored ranking, unless it asks for more than a truncated fetch holds;
recommendations then only assemble profiles not yet cached.

**Batched wave reads.**  :meth:`RetrievalPlane.cached` and
:meth:`RetrievalPlane.cached_interest_ids` serve a whole extraction
wave's warm hits in one read — one epoch read, one critical section,
one counter update per outcome — so a warm candidate costs a lookup,
not an executor task.  They count only hits; the caller resolves each
miss through :meth:`RetrievalPlane.fetch` or
:meth:`RetrievalPlane.interest_ids`, which count it, so every lookup is
counted once.

Freshness is governed by the **epoch**: :meth:`bump_epoch` (called by
:meth:`~repro.scholarly.registry.ScholarlyHub.refresh_services` when
:mod:`repro.world.dynamics` mutations are re-indexed) makes every
cached entry and folded ranking unreachable, so world advancement can
never serve stale profiles.  The TTL bounds staleness *within* an
epoch against the shared virtual clock.

Everything is instrumented through :mod:`repro.obs`: per-layer
hit/miss/coalesce counters, store/index gauges, and spans around leader
fetches.  ``GET /api/v1/metrics`` serves :meth:`stats`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Sequence

from repro.obs import get_obs
from repro.retrieval.singleflight import SingleFlight
from repro.text.normalize import normalize_keyword
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock


class _InterestMirror:
    """Epoch-scoped local mirror of one source's interest index.

    Each folded keyword keeps the service's ranked id list and the
    ``limit`` it was fetched with: a narrower later query is a prefix of
    the stored ranking and resolves locally; a wider one must go back to
    the source.
    """

    def __init__(self, source: str):
        self.source = source
        self._fetched_limit: dict[str, int] = {}
        self._order: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    def lookup(self, keyword: str, limit: int) -> list[str] | None:
        """Locally resolved ids, or ``None`` when the mirror can't answer."""
        return self.lookup_many([keyword], limit)[0]

    def lookup_many(self, keywords: list[str], limit: int) -> list[list[str] | None]:
        """:meth:`lookup` for many keywords in one critical section."""
        with self._lock:
            return [self._resolve(keyword, limit) for keyword in keywords]

    def _resolve(self, keyword: str, limit: int) -> list[str] | None:
        # Caller holds self._lock.
        stored = self._order.get(keyword)
        if stored is None:
            return None
        fetched_limit = self._fetched_limit[keyword]
        if limit > fetched_limit and len(stored) >= fetched_limit:
            # The stored ranking may be truncated below what the
            # caller wants; only the source knows the tail.
            return None
        return stored[:limit]

    def fold(self, keyword: str, ids: list[str], limit: int) -> None:
        """Record one fetched posting list (idempotent per epoch)."""
        with self._lock:
            known = self._fetched_limit.get(keyword, -1)
            if known >= limit:
                return
            self._order[keyword] = list(ids)
            self._fetched_limit[keyword] = limit

    def term_count(self) -> int:
        with self._lock:
            return len(self._order)

    def clear(self) -> None:
        with self._lock:
            self._fetched_limit.clear()
            self._order.clear()


class RetrievalPlane:
    """Shared warm path for candidate retrieval and profile assembly.

    Parameters
    ----------
    clock:
        The virtual clock TTLs are measured against (the hub's).
    ttl:
        Profile-store entry lifetime in virtual seconds; ``None`` (the
        default) keeps entries until the epoch bumps or LRU evicts them.
    capacity:
        Profile-store LRU bound.
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
        self._mirrors = {
            "scholar": _InterestMirror("scholar"),
            "publons": _InterestMirror("publons"),
        }
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
        """The underlying profile store (exposed for inspection)."""
        return self._store

    def bump_epoch(self) -> int:
        """Invalidate everything: the world has visibly changed.

        Cached entries are keyed by epoch, so bumping makes them
        unreachable in O(1); the interest mirrors are rebuilt from
        scratch on next contact.  Returns the new epoch.
        """
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            feature_store = self._feature_store
        for mirror in self._mirrors.values():
            mirror.clear()
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
    # Generic cached fetch (profile store + singleflight)
    # ------------------------------------------------------------------

    def fetch(
        self,
        layer: str,
        key: Hashable,
        loader: Callable[[], object],
        keep: Callable[[object], bool] | None = None,
    ) -> object:
        """Resolve ``key`` warm when possible, else coalesce one fetch.

        ``layer`` labels the metrics (``scholar_profile``,
        ``publons_summary``, ...).  Loader exceptions propagate to the
        leader *and* every coalesced waiter, and nothing is cached — a
        retried request re-draws the same simulated outcome, so warm
        runs degrade exactly like cold ones.

        ``keep``, when given, decides whether a loaded value is stored.
        A value it rejects goes back to the caller that loaded it and to
        no one else: every other caller loads its own, as it would one
        at a time, so loads and requests match at any worker count.
        """
        epoch_key = (self.epoch, layer, key)
        cached = self._store.get(epoch_key)
        if cached is not None:
            self._count("hit", layer)
            return cached[0]
        rejected: list[object] = []

        def load() -> tuple[object] | None:
            value = self._load(layer, loader)
            if keep is not None and not keep(value):
                rejected.append(value)
                return None
            entry = (value,)
            self._store.put(epoch_key, entry)
            return entry

        entry, loaded = self._load_once(
            epoch_key, layer, lambda: self._store.peek(epoch_key), load
        )
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

    def _load(self, layer: str, loader: Callable[[], object]) -> object:
        with get_obs().span(
            "retrieval.fetch", clock=self._clock, plane=self._name, layer=layer
        ):
            return loader()

    def _load_once(
        self,
        epoch_key: Hashable,
        layer: str,
        recheck: Callable[[], object | None],
        load: Callable[[], object],
    ) -> tuple[object, bool]:
        """Coalesce the load of a looked-up miss and count its outcome.

        ``load`` publishes its value (store put, mirror fold) before the
        flight lands, and a new leader first re-checks with ``recheck``,
        which counts nothing.  A caller whose lookup missed just before
        an earlier flight published therefore joins that flight or finds
        its value — each key loads at most once per epoch, at any worker
        count.  ``recheck`` and ``load`` return the same shape; the
        outcome is whichever the leader produced.  ``loaded`` is true
        only for the caller that ran ``load``: that lookup counts as the
        miss, every other one as coalesced.  A ``load`` that publishes
        nothing returns ``None``; a waiter on such a flight runs its own
        ``load`` and counts as a miss.
        """

        def lead() -> tuple[object, bool]:
            found = recheck()
            if found is not None:
                return found, False
            return load(), True

        (outcome, loaded), leader = self._flight.do(epoch_key, lead)
        loaded = leader and loaded
        if outcome is None and not loaded:
            outcome, loaded = load(), True
        self._count("miss" if loaded else "coalesced", layer)
        return outcome, loaded

    # ------------------------------------------------------------------
    # Interest index
    # ------------------------------------------------------------------

    def interest_ids(
        self,
        source: str,
        keyword: str,
        limit: int,
        loader: Callable[[], list[str]],
    ) -> list[str]:
        """Resolve an interest query locally, or fetch-and-fold once.

        ``source`` is ``"scholar"`` or ``"publons"``; ``loader`` issues
        the real interest query (with ``limit``) on a miss.  After first
        contact the ranking lives in the local mirror and later queries
        — including narrower ``limit`` s — never touch the network
        within the epoch.
        """
        mirror = self._mirrors[source]
        layer = f"{source}_interest"
        normalized = normalize_keyword(keyword)
        local = mirror.lookup(normalized, limit)
        if local is not None:
            self._count("hit", layer)
            return local

        def load() -> list[str]:
            ids = self._load(layer, loader)
            mirror.fold(normalized, ids, limit)
            return ids

        ids, loaded = self._load_once(
            (self.epoch, layer, normalized, limit),
            layer,
            lambda: mirror.lookup(normalized, limit),
            load,
        )
        if loaded:
            get_obs().gauge(
                "retrieval_index_terms",
                float(mirror.term_count()),
                plane=self._name,
                source=source,
            )
        return list(ids[:limit])

    def cached_interest_ids(
        self, source: str, keywords: Sequence[str], limit: int
    ) -> dict[int, list[str]]:
        """Serve a wave's locally resolvable interest queries in one read.

        Returns ``{index: ids}`` for the keywords the mirror answers;
        like :meth:`cached`, only those hits are counted, and the caller
        resolves the rest through :meth:`interest_ids`.
        """
        layer = f"{source}_interest"
        found = self._mirrors[source].lookup_many(
            [normalize_keyword(keyword) for keyword in keywords], limit
        )
        hits = {i: ids for i, ids in enumerate(found) if ids is not None}
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
            "index_terms": {
                source: mirror.term_count()
                for source, mirror in sorted(self._mirrors.items())
            },
            "layers": layers,
        }

    def clear(self) -> None:
        """Drop all cached state without advancing the epoch."""
        self._store.clear()
        for mirror in self._mirrors.values():
            mirror.clear()

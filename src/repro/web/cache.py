"""TTL response cache over virtual time.

"On-the-fly" extraction (the paper's freshness guarantee) and caching
pull in opposite directions: every cache hit saves a request but risks
staleness.  The cache's TTL is the experimental knob of EXP-SCALE —
TTL 0 is the paper's pure on-the-fly mode (the hub then builds no
crawler cache), TTL ∞ is a static snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Sequence

from repro.obs import get_obs, label_key
from repro.obs.ledger import charge_cache
from repro.web.clock import SimulatedClock


class TTLCache:
    """An LRU cache whose entries expire after ``ttl`` virtual seconds.

    ``ttl=0`` disables caching entirely (every get misses); ``ttl=None``
    means entries never expire.  Capacity-bound with LRU eviction.
    :meth:`~repro.scholarly.registry.ScholarlyHub.deploy` builds no
    crawler cache at TTL 0; the ``ttl == 0`` path serves caches built
    with a configurable TTL, such as the warm plane's
    (``warm_cache_ttl=0``).

    Thread-safe: one crawler cache is shared by every worker in a
    parallel extraction, so lookup, insert and eviction each happen
    atomically and the capacity bound holds under any interleaving.

    ``name`` labels this cache's hit/miss/eviction metrics in the
    ambient :mod:`repro.obs` registry.

    Example
    -------
    >>> clock = SimulatedClock()
    >>> cache = TTLCache(ttl=10.0, capacity=100, clock=clock)
    >>> cache.put("k", "v"); cache.get("k")
    'v'
    >>> clock.advance(11.0); cache.get("k") is None
    True
    """

    def __init__(
        self,
        ttl: float | None,
        capacity: int,
        clock: SimulatedClock,
        name: str = "cache",
    ):
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0 or None, got {ttl}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._ttl = ttl
        self._capacity = capacity
        self._clock = clock
        self._name = name
        self._key = label_key(cache=name)
        self._expired_key = label_key(cache=name, reason="expired")
        self._capacity_key = label_key(cache=name, reason="capacity")
        self._entries: OrderedDict[Hashable, tuple[float, object]] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Entries dropped because their TTL had lapsed — including the
        #: ones discovered lazily, by a ``get`` or an overwriting ``put``.
        self.evictions_expired = 0
        #: Entries pushed out by the LRU capacity bound.
        self.evictions_capacity = 0

    def __len__(self) -> int:
        with self._lock:
            self._evict_expired()
            return len(self._entries)

    @property
    def name(self) -> str:
        """The label this cache's metrics are tagged with."""
        return self._name

    @property
    def ttl(self) -> float | None:
        """Entry lifetime in virtual seconds (None = immortal)."""
        return self._ttl

    @property
    def capacity(self) -> int:
        """Maximum number of live entries."""
        return self._capacity

    def get(self, key: Hashable) -> object | None:
        """Return the cached value, or ``None`` on miss/expiry."""
        with self._lock:
            if self._ttl == 0:
                self.misses += 1
                get_obs().inc_key("cache_misses_total", self._key)
                charge_cache(self._name, hit=False)
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                get_obs().inc_key("cache_misses_total", self._key)
                charge_cache(self._name, hit=False)
                return None
            stored_at, value = entry
            if self._ttl is not None and self._clock.now() - stored_at > self._ttl:
                del self._entries[key]
                self.misses += 1
                self.evictions_expired += 1
                obs = get_obs()
                obs.inc_key("cache_misses_total", self._key)
                obs.inc_key("cache_evictions_total", self._expired_key)
                charge_cache(self._name, hit=False)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            get_obs().inc_key("cache_hits_total", self._key)
            charge_cache(self._name, hit=True)
            return value

    def get_hits(self, keys: Sequence[Hashable]) -> list[object | None]:
        """Read many keys under one lock, counting only the hits.

        Returns one value per key, ``None`` where :meth:`get` would
        miss.  A miss is neither counted nor evicted here: the caller
        resolves it through :meth:`get`, which counts it (and drops an
        expired entry) exactly once.
        """
        with self._lock:
            found = [self._live(key) for key in keys]
            hits = 0
            for key, value in zip(keys, found):
                if value is not None:
                    self._entries.move_to_end(key)
                    hits += 1
            if hits:
                self.hits += hits
                get_obs().inc_key("cache_hits_total", self._key, hits)
        if hits:
            charge_cache(self._name, hit=True, count=hits)
        return found

    def peek(self, key: Hashable) -> object | None:
        """The live value for ``key``, touching no counter or LRU order."""
        with self._lock:
            return self._live(key)

    def _live(self, key: Hashable) -> object | None:
        # Caller holds self._lock.
        if self._ttl == 0:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        stored_at, value = entry
        if self._ttl is not None and self._clock.now() - stored_at > self._ttl:
            return None
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store a value, evicting the LRU entry when over capacity."""
        with self._lock:
            if self._ttl == 0:
                return
            previous = self._entries.pop(key, None)
            if previous is not None and self._ttl is not None:
                # An overwrite of an already-expired entry is an eviction
                # too — the entry died of age, the put merely found the
                # body.  Without this the expired/capacity split
                # undercounts on write-heavy keys.
                if self._clock.now() - previous[0] > self._ttl:
                    self.evictions_expired += 1
                    get_obs().inc_key("cache_evictions_total", self._expired_key)
            self._entries[key] = (self._clock.now(), value)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions_capacity += 1
                get_obs().inc_key("cache_evictions_total", self._capacity_key)

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        with self._lock:
            self._entries.clear()

    def hit_rate(self) -> float:
        """Fraction of gets served from cache (0.0 when never queried)."""
        with self._lock:
            total = self.hits + self.misses
            if total == 0:
                return 0.0
            return self.hits / total

    def stats(self) -> dict:
        """JSON-serialisable counter snapshot for metrics endpoints."""
        with self._lock:
            self._evict_expired()
            return {
                "name": self._name,
                "entries": len(self._entries),
                "capacity": self._capacity,
                "ttl": self._ttl,
                "hits": self.hits,
                "misses": self.misses,
                "evictions_expired": self.evictions_expired,
                "evictions_capacity": self.evictions_capacity,
            }

    def _evict_expired(self) -> None:
        # Caller holds self._lock.
        if self._ttl is None:
            return
        now = self._clock.now()
        expired = [
            key
            for key, (stored_at, __) in self._entries.items()
            if now - stored_at > self._ttl
        ]
        for key in expired:
            del self._entries[key]
        if expired:
            self.evictions_expired += len(expired)
            get_obs().inc_key("cache_evictions_total", self._expired_key, len(expired))

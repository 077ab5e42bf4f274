"""Hash-sharded inverted index with shard-parallel ranked retrieval.

One :class:`repro.storage.InvertedIndex` behind one lock is the scale
ceiling of the retrieval path: every posting-list union runs on one
core and every writer excludes every reader.  :class:`ShardedInvertedIndex`
splits the *document* space across ``n_shards`` independent
:class:`~repro.storage.inverted.InvertedIndex` instances — documents,
not terms, so ranked retrieval parallelises per shard and a hot term's
posting list is itself spread across shards.

Bit-identity with the monolithic index is held by two invariants:

- **Global idf.**  Per-shard scoring weights terms with idf computed
  from the *global* document count and document frequency
  (:func:`repro.storage.inverted.idf_of` over summed per-shard stats),
  never from a shard's local view.  Per-document accumulation order
  (query-term order) matches the monolithic
  :meth:`~repro.storage.inverted.InvertedIndex.score_terms` exactly, and
  each document lives in exactly one shard, so the merged score map is
  equal float-for-float.
- **Canonical merge.**  Merged results are ordered by the same
  ``(-score, doc_id)`` heap tie-break the monolithic ``search`` uses.

Each shard carries its own lock and epoch stamp: refreshes touch only
the shards whose documents changed, and ``bump_epoch()`` advances every
stamp so plane-level ``refresh_services()`` semantics (all cached
derived state invalidated at once) are preserved.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections.abc import Iterable, Mapping

from repro.concurrency import Executor, SequentialExecutor
from repro.obs import get_obs
from repro.storage.inverted import InvertedIndex, Posting, idf_of


def shard_of(doc_id: str, n_shards: int) -> int:
    """The shard owning ``doc_id``: ``blake2b(doc_id) % n_shards``.

    A *stable* hash — Python's builtin ``hash`` is randomized per
    process, which would scatter the same world differently on every
    run and break cross-process reproducibility.
    """
    if n_shards == 1:
        return 0
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


class _Shard:
    """One independently locked, epoch-stamped index partition."""

    __slots__ = ("index", "lock", "epoch")

    def __init__(self):
        self.index = InvertedIndex()
        self.lock = threading.Lock()
        self.epoch = 0


class ShardedInvertedIndex:
    """Document-sharded inverted index, search-compatible with the
    monolithic :class:`~repro.storage.inverted.InvertedIndex`.

    Example
    -------
    >>> index = ShardedInvertedIndex(4)
    >>> index.add("alice", {"rdf": 2.0})
    >>> index.add("bob", {"rdf": 1.0})
    >>> [p.doc_id for p in index.search(["rdf"])]
    ['alice', 'bob']
    """

    def __init__(
        self,
        n_shards: int = 1,
        executor: Executor | None = None,
        name: str = "scale",
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._shards = [_Shard() for __ in range(n_shards)]
        self._executor = executor or SequentialExecutor()
        self._name = name

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def epoch(self) -> int:
        """The plane-level epoch: the maximum shard stamp."""
        return max(shard.epoch for shard in self._shards)

    def bump_epoch(self) -> int:
        """Advance every shard's stamp to one past the current maximum.

        This is the ``refresh_services()`` hook: all shards land on the
        same new epoch, so every consumer keyed on any shard's stamp —
        or on the plane-level maximum — sees its cache invalidated at
        once, exactly as with one monolithic epoch.
        """
        target = self.epoch + 1
        for shard in self._shards:
            with shard.lock:
                shard.epoch = target
        return target

    def shard_for(self, doc_id: str) -> int:
        return shard_of(doc_id, len(self._shards))

    # ------------------------------------------------------------------
    # Writes (routed to the owning shard; only that shard's lock is held)
    # ------------------------------------------------------------------

    def add(self, doc_id: str, term_weights: Mapping[str, float]) -> None:
        shard = self._shards[self.shard_for(doc_id)]
        with shard.lock:
            shard.index.add(doc_id, term_weights)
            shard.epoch += 1

    def add_term(self, term: str, doc_weights: Mapping[str, float]) -> None:
        for shard_id, weights in self._split(doc_weights).items():
            shard = self._shards[shard_id]
            with shard.lock:
                shard.index.add_term(term, weights)
                shard.epoch += 1

    def replace_term(self, term: str, doc_weights: Mapping[str, float]) -> None:
        """Atomically-per-shard replace ``term``'s posting list.

        Every shard replaces its slice of the list (shards with no new
        postings drop the term), so no stale posting survives anywhere.
        """
        split = self._split(doc_weights)
        for shard_id, shard in enumerate(self._shards):
            with shard.lock:
                shard.index.replace_term(term, split.get(shard_id, {}))
                shard.epoch += 1

    def remove(self, doc_id: str) -> None:
        shard = self._shards[self.shard_for(doc_id)]
        with shard.lock:
            shard.index.remove(doc_id)
            shard.epoch += 1

    def _split(
        self, doc_weights: Mapping[str, float]
    ) -> dict[int, dict[str, float]]:
        split: dict[int, dict[str, float]] = {}
        for doc_id, weight in doc_weights.items():
            split.setdefault(self.shard_for(doc_id), {})[doc_id] = weight
        return split

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard.index) for shard in self._shards)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._shards[self.shard_for(doc_id)].index

    def document_frequency(self, term: str) -> int:
        return sum(shard.index.document_frequency(term) for shard in self._shards)

    def terms_of(self, doc_id: str) -> set[str]:
        return self._shards[self.shard_for(doc_id)].index.terms_of(doc_id)

    def postings(self, term: str) -> list[Posting]:
        """The merged posting list, in the monolithic sort order."""
        merged: list[Posting] = []
        for shard in self._shards:
            merged.extend(shard.index.postings(term))
        merged.sort(key=lambda p: (-p.weight, p.doc_id))
        return merged

    def stats(self) -> dict:
        """Aggregate and per-shard size counts (and the obs gauges)."""
        obs = get_obs()
        per_shard = []
        for shard_id, shard in enumerate(self._shards):
            with shard.lock:
                snapshot = shard.index.stats()
                snapshot["epoch"] = shard.epoch
            per_shard.append(snapshot)
            obs.gauge(
                "scale_shard_postings",
                float(snapshot["postings"]),
                index=self._name,
                shard=str(shard_id),
            )
            obs.gauge(
                "scale_shard_documents",
                float(snapshot["documents"]),
                index=self._name,
                shard=str(shard_id),
            )
        return {
            "shards": len(self._shards),
            "documents": sum(s["documents"] for s in per_shard),
            "postings": sum(s["postings"] for s in per_shard),
            "terms": len({t for shard in self._shards for t in shard.index._postings}),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def _global_idf(self, term_list: list[str]) -> dict[str, float]:
        total_docs = len(self)
        idf: dict[str, float] = {}
        for term in dict.fromkeys(term_list):
            df = self.document_frequency(term)
            if df:
                idf[term] = idf_of(total_docs, df)
        return idf

    def search(
        self,
        terms: Iterable[str],
        query_weights: Mapping[str, float] | None = None,
        limit: int | None = None,
        use_idf: bool = True,
    ) -> list[Posting]:
        """Shard-parallel ranked OR-retrieval.

        Same contract (and same floats, same order) as the monolithic
        :meth:`~repro.storage.inverted.InvertedIndex.search`: per-shard
        scoring under the global idf, merged by score then id.
        """
        term_list = list(terms)
        obs = get_obs()
        with obs.span(
            "scale.retrieve", shards=len(self._shards), terms=len(term_list)
        ):
            idf = self._global_idf(term_list) if use_idf else None

            def shard_scores(shard: _Shard) -> dict[str, float]:
                with shard.lock:
                    return shard.index.score_terms(term_list, query_weights, idf=idf)

            score_maps = self._executor.map(shard_scores, self._shards)
            results = [
                Posting(doc_id=d, weight=s)
                for scores in score_maps
                for d, s in scores.items()
            ]
            if limit is not None and 0 <= limit < len(results):
                results = heapq.nsmallest(
                    limit, results, key=lambda p: (-p.weight, p.doc_id)
                )
            results.sort(key=lambda p: (-p.weight, p.doc_id))
            return results

    def search_any(self, terms: Iterable[str]) -> list[str]:
        term_list = list(terms)
        hits = self._executor.map(
            lambda shard: shard.index.search_any(term_list), self._shards
        )
        return sorted(doc_id for shard_hits in hits for doc_id in shard_hits)

    def search_all(self, terms: Iterable[str]) -> list[str]:
        term_list = list(terms)
        hits = self._executor.map(
            lambda shard: shard.index.search_all(term_list), self._shards
        )
        return sorted(doc_id for shard_hits in hits for doc_id in shard_hits)

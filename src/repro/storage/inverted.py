"""A weighted inverted index for keyword → scholar retrieval.

The candidate-reviewer search (paper §2.1) asks each scholarly service
for "scholars who register keyword K as a research interest".  A real
service answers that from an inverted index; so do we.  Postings carry a
weight (how strongly the scholar is associated with the keyword) so that
retrieval can be ranked and so the expansion scores ``sc`` can be folded
into the match score.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass


def idf_of(document_count: int, document_frequency: int) -> float:
    """The index's idf formula.

    :meth:`InvertedIndex.search` weights each term with it, and the
    scale plane's brute-force reference
    (:meth:`repro.scale.plane.ScalePlane.brute_force_topk`) recomputes
    retrieval relevance without an index from the same definition.
    """
    return math.log(1 + max(document_count, 1) / document_frequency)


@dataclass(frozen=True, order=True)
class Posting:
    """One entry of a posting list: a document id and its term weight."""

    doc_id: str
    weight: float = 1.0


class InvertedIndex:
    """Term → posting-list index with ranked retrieval.

    Example
    -------
    >>> index = InvertedIndex()
    >>> index.add("alice", {"rdf": 2.0, "sparql": 1.0})
    >>> index.add("bob", {"rdf": 1.0})
    >>> [p.doc_id for p in index.search(["rdf"])]
    ['alice', 'bob']
    """

    def __init__(self):
        # A plain dict, not a defaultdict: only ``add`` creates a posting
        # list, so a lookup can never materialize an empty one that then
        # haunts ``term_count``/``stats``.
        self._postings: dict[str, dict[str, float]] = {}
        self._documents: set[str] = set()

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    @property
    def term_count(self) -> int:
        """Number of distinct terms."""
        return len(self._postings)

    def add(self, doc_id: str, term_weights: Mapping[str, float]) -> None:
        """Index ``doc_id`` under every term in ``term_weights``.

        Re-adding a term for the same document overwrites its weight.
        Non-positive weights are rejected: a zero weight is
        indistinguishable from absence and would corrupt ranked retrieval.
        """
        for term, weight in term_weights.items():
            if weight <= 0:
                raise ValueError(
                    f"posting weight must be positive, got {weight!r} for {term!r}"
                )
        for term, weight in term_weights.items():
            self._postings.setdefault(term, {})[doc_id] = float(weight)
        if term_weights:
            self._documents.add(doc_id)

    def stats(self) -> dict:
        """Size snapshot: distinct terms, documents and total postings.

        ``add`` never creates an empty posting list, so every term
        counted here has at least one posting.
        """
        return {
            "terms": len(self._postings),
            "documents": len(self._documents),
            "postings": sum(len(bucket) for bucket in self._postings.values()),
        }

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def search(
        self,
        terms: Iterable[str],
        query_weights: Mapping[str, float] | None = None,
        limit: int | None = None,
        use_idf: bool = True,
    ) -> list[Posting]:
        """Ranked OR-retrieval over ``terms``.

        Each matching document scores ``Σ_t qw(t) · weight(t, d) · idf(t)``
        over the query terms it contains, accumulated in query-term
        order (a repeated term counts again).  ``query_weights`` carries
        the expansion similarity scores ``sc`` from the ontology; absent
        terms default to weight 1.0 (the original manuscript keywords).
        ``use_idf=False`` weighs every term 1.0.

        Returns postings whose ``weight`` field holds the aggregate score,
        sorted by descending score then id; ``limit`` truncates.  Every
        matching document is ranked by its ``(-score, doc_id)`` key, but
        postings are built only for the cut that is returned.
        """
        weights = query_weights or {}
        total_docs = len(self._documents)
        scores: dict[str, float] = defaultdict(float)
        for term in terms:
            bucket = self._postings.get(term)
            if not bucket:
                continue
            term_idf = idf_of(total_docs, len(bucket)) if use_idf else 1.0
            query_weight = float(weights.get(term, 1.0))
            for doc_id, term_weight in bucket.items():
                scores[doc_id] += query_weight * term_weight * term_idf
        # Doc ids are unique, so key comparisons never go past ``doc_id``.
        ranked = [(-s, d) for d, s in scores.items()]
        if limit is not None and 0 <= limit < len(ranked):
            ranked = heapq.nsmallest(limit, ranked)
        else:
            ranked.sort()
        return [Posting(d, -neg) for neg, d in ranked]

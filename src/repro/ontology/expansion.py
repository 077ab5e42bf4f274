"""Semantic keyword expansion — the widening step of candidate search.

Paper §2.1: *"keywords representing the submission are semantically
expanded to provide a wider range of related reviewers as candidates.
Each relevant expanded keyword is assigned a similarity score sc ∈ [0, 1]
... if one of the manuscript's keywords is 'RDF', the expansion module
would return 'Semantic Web', 'Linked Open Data', and 'SPARQL'."*

The engine runs a best-first traversal from each seed keyword's topic.
Every relation type carries a decay factor; a path's score is the product
of its edge decays, and a topic keeps the best score over all discovered
paths.  Traversal stops at a configurable depth and score threshold.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ontology.graph import Relation, TopicOntology

#: Seed expansions one expander memoizes, least recently used evicted
#: first.  A deployment shares one expander across requests, and request
#: keywords are arbitrary strings, so the memo must be bounded.
MEMO_CAPACITY = 4096

#: Default per-relation decay factors.  Synonyms are free (1.0); moving to
#: a narrower topic keeps most relevance (a reviewer of the sub-topic can
#: review the manuscript); broader hops dilute more; lateral "related"
#: hops dilute most.
DEFAULT_RELATION_DECAY: dict[Relation, float] = {
    Relation.SAME_AS: 1.0,
    Relation.NARROWER: 0.9,
    Relation.BROADER: 0.8,
    Relation.RELATED: 0.7,
}


@dataclass(frozen=True)
class ExpansionConfig:
    """Tunables of the expansion traversal.

    Attributes
    ----------
    max_depth:
        Maximum number of relation hops from the seed topic.
    min_score:
        Topics whose best path score falls below this are discarded.
    relation_decay:
        Per-relation multiplicative decay; missing relations are not
        traversed at all.
    max_results_per_keyword:
        Hard cap on expanded topics per seed (best scores kept).
    """

    max_depth: int = 2
    min_score: float = 0.5
    relation_decay: dict[Relation, float] = field(
        default_factory=lambda: dict(DEFAULT_RELATION_DECAY)
    )
    max_results_per_keyword: int = 25

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")
        for relation, decay in self.relation_decay.items():
            if not 0.0 <= decay <= 1.0:
                raise ValueError(
                    f"decay for {relation.value} must be in [0, 1], got {decay}"
                )


@dataclass(frozen=True)
class ExpandedKeyword:
    """One expansion result.

    Attributes
    ----------
    keyword:
        The expanded topic's preferred label (what gets sent to sources).
    topic_id:
        Ontology id of the expanded topic.
    score:
        Similarity ``sc ∈ [0, 1]`` to the originating seed keyword.
    seed:
        The original manuscript keyword this expansion came from.
    depth:
        Number of relation hops from the seed topic (0 for the seed
        itself and its synonyms resolved at distance 0).
    """

    keyword: str
    topic_id: str
    score: float
    seed: str
    depth: int


class KeywordExpander:
    """Expands manuscript keywords into scored related keywords.

    Example
    -------
    >>> from repro.ontology.data import build_seed_ontology
    >>> expander = KeywordExpander(build_seed_ontology())
    >>> labels = {e.keyword for e in expander.expand(["RDF"])}
    >>> {"Semantic Web", "SPARQL", "Linked Open Data"} <= labels
    True
    """

    def __init__(self, ontology: TopicOntology, config: ExpansionConfig | None = None):
        self._ontology = ontology
        self._config = config or ExpansionConfig()
        # Editors re-run searches with overlapping keywords constantly;
        # per-(seed, config) memoization makes repeats free.  Safe
        # because the ontology is treated as immutable once wrapped.
        # The lock keeps the memo and its hit counter exact when one
        # expander serves a parallel batch of manuscripts.
        self._memo: OrderedDict[tuple, list[ExpandedKeyword]] = OrderedDict()
        self._memo_lock = threading.Lock()
        self.memo_hits = 0

    @property
    def ontology(self) -> TopicOntology:
        """The ontology being traversed."""
        return self._ontology

    @property
    def config(self) -> ExpansionConfig:
        """The active traversal configuration."""
        return self._config

    def expand(
        self, keywords: list[str], config: ExpansionConfig | None = None
    ) -> list[ExpandedKeyword]:
        """Expand every keyword; merge, dedupe, and sort the results.

        Keywords that do not resolve to any ontology topic are passed
        through unexpanded with score 1.0 (the manuscript keyword itself
        is always a valid search term, ontology coverage or not); each
        keeps its own entry, since none of them has a topic to share.

        When several seeds reach the same topic, the best score wins and
        the contributing seed is the one that produced it.  Results are
        sorted by descending score, then label, for determinism.
        """
        config = config or self._config
        best: dict[tuple[str, str], ExpandedKeyword] = {}
        for seed in keywords:
            for expanded in self._expand_one_cached(seed, config):
                # A pass-through has no topic id: key it by its keyword.
                key = (expanded.topic_id, "" if expanded.topic_id else expanded.keyword)
                current = best.get(key)
                if current is None or expanded.score > current.score:
                    best[key] = expanded
        results = list(best.values())
        results.sort(key=lambda e: (-e.score, e.keyword))
        return results

    def _expand_one_cached(
        self, seed: str, config: ExpansionConfig
    ) -> list[ExpandedKeyword]:
        key = (
            seed,
            config.max_depth,
            config.min_score,
            tuple(sorted((r.value, d) for r, d in config.relation_decay.items())),
            config.max_results_per_keyword,
        )
        with self._memo_lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self.memo_hits += 1
                return cached
        result = self._expand_one(seed, config)
        with self._memo_lock:
            self._memo[key] = result
            if len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)
        return result

    def _expand_one(
        self, seed: str, config: ExpansionConfig
    ) -> list[ExpandedKeyword]:
        """Best-first expansion of a single seed keyword."""
        seed_topic = self._ontology.find(seed)
        if seed_topic is None:
            return [
                ExpandedKeyword(
                    keyword=seed, topic_id="", score=1.0, seed=seed, depth=0
                )
            ]
        # Bounded Bellman-Ford over decay products: round k relaxes all
        # paths of <= k hops, so the score is the true maximum over all
        # admissible paths and results grow monotonically with
        # max_depth.  (A best-first search that finalizes topics on
        # first pop is subtly wrong here: the best-scoring path can be
        # the *longer* one, and finalizing it at the depth limit cuts
        # off topics a shorter, cheaper path would have gone on to
        # reach.)  Only strict improvements propagate — decay products
        # are monotone, so a non-improved score cannot improve anything
        # downstream.
        best_score: dict[str, float] = {seed_topic.topic_id: 1.0}
        best_depth: dict[str, int] = {seed_topic.topic_id: 0}
        improved = {seed_topic.topic_id: 1.0}
        for hop in range(1, config.max_depth + 1):
            next_improved: dict[str, float] = {}
            for topic_id, score in improved.items():
                for neighbor, relation in self._ontology.neighbors(topic_id):
                    decay = config.relation_decay.get(relation)
                    if decay is None:
                        continue
                    next_score = score * decay
                    if next_score < config.min_score:
                        continue
                    if next_score > best_score.get(neighbor.topic_id, 0.0):
                        best_score[neighbor.topic_id] = next_score
                        best_depth[neighbor.topic_id] = hop
                        next_improved[neighbor.topic_id] = next_score
            if not next_improved:
                break
            improved = next_improved
        results = [
            ExpandedKeyword(
                keyword=self._ontology.topic(topic_id).label,
                topic_id=topic_id,
                score=score,
                seed=seed,
                depth=best_depth[topic_id],
            )
            for topic_id, score in best_score.items()
            if score >= config.min_score
        ]
        results.sort(key=lambda e: (-e.score, e.keyword))
        if len(results) > config.max_results_per_keyword:
            results = results[: config.max_results_per_keyword]
        return results

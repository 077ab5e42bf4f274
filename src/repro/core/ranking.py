"""Ranking phase (§2.3): five components fused by a weighted sum.

Components (each normalized to [0, 1] within the candidate pool before
weighting, so an editor's weights express relative importance rather
than unit conversions):

``topic_coverage``
    How much of the manuscript's keyword set the reviewer covers — the
    paper's example: a reviewer matching both "Semantic Web" and "Big
    Data" outranks one matching only "Semantic Web".
``scientific_impact``
    Citations or H-index, per the editor's configured metric.
``recency``
    Exponentially time-discounted topical publications: recent papers on
    the manuscript's topic count most.
``review_experience``
    Total completed manuscript reviews (Publons).
``outlet_familiarity``
    Reviews performed for, plus papers published in, the target outlet.
``timeliness``
    The abstract's "likelihood to accept and timely return" criterion:
    the Publons on-time rate (weight 0 by default — see EXP-TURNAROUND
    for what raising it buys).

Fusion is the §2.3 weighted sum by default; OWA (reference [4]) is
available via :class:`~repro.core.config.AggregationMethod`.

:class:`Ranker` is the production path: it ranks on the
:mod:`repro.scoring` compute plane (precompiled candidate features,
compiled manuscript queries and top-k pruning).  :class:`NaiveRanker`
is the direct transcription of the paper's formulas, recomputing
everything per manuscript; it is the *reference oracle* that
``tests/scoring`` holds the plane to, bit for bit.
"""

from __future__ import annotations

import math

from repro.core.config import AggregationMethod, ImpactMetric, PipelineConfig
from repro.core.models import Candidate, Manuscript, ScoreBreakdown, ScoredCandidate
from repro.ontology.expansion import ExpandedKeyword
from repro.scoring.aggregate import owa_aggregate as _owa_aggregate
from repro.scoring.engine import rank_with_plane
from repro.scoring.features import FeatureStore, ScoringContext
from repro.scoring.query import group_expansions_by_seed as _group_expansions_by_seed
from repro.text.normalize import normalize_keyword
from repro.text.tokenize import tokenize

__all__ = ["NaiveRanker", "Ranker"]


class Ranker:
    """Scores and orders the filtered candidates on the compute plane.

    Candidate features are read through ``features`` (a
    :class:`~repro.scoring.features.FeatureStore`, shared across
    manuscripts by the pipeline / batch engine; a private store is
    created when none is given).  Rankings are bit-identical to
    :class:`NaiveRanker`'s.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        features: FeatureStore | None = None,
        context: ScoringContext | None = None,
    ):
        self._config = config or PipelineConfig()
        self._features = features if features is not None else FeatureStore()
        self._context = (
            context if context is not None else ScoringContext.from_config(self._config)
        )

    def rank(
        self,
        manuscript: Manuscript,
        candidates: list[Candidate],
        expanded: list[ExpandedKeyword],
    ) -> list[ScoredCandidate]:
        """Produce the ranked list with per-component breakdowns.

        The full ranking, or exactly its first ``config.top_k`` entries
        when ``top_k`` is set.
        """
        return rank_with_plane(
            manuscript,
            candidates,
            expanded,
            self._config,
            self._features,
            ctx=self._context,
        )


class NaiveRanker:
    """The reference ranking path: everything recomputed per manuscript."""

    def __init__(self, config: PipelineConfig | None = None):
        self._config = config or PipelineConfig()

    def rank(
        self,
        manuscript: Manuscript,
        candidates: list[Candidate],
        expanded: list[ExpandedKeyword],
    ) -> list[ScoredCandidate]:
        """Produce the final ranked list with per-component breakdowns."""
        if not candidates:
            return []
        seed_expansions = _group_expansions_by_seed(manuscript.keywords, expanded)
        raw: list[dict[str, float]] = [
            {
                "topic_coverage": self._topic_coverage(candidate, seed_expansions),
                "scientific_impact": self._impact(candidate),
                "recency": self._recency(candidate, expanded),
                "review_experience": float(candidate.review_count),
                "outlet_familiarity": self._outlet_familiarity(
                    candidate, manuscript.target_venue
                ),
                "timeliness": (
                    candidate.on_time_rate
                    if candidate.on_time_rate is not None
                    else 0.0
                ),
            }
            for candidate in candidates
        ]
        normalized = _normalize_components(raw)
        weights = self._config.weights.normalized()
        scored = []
        for candidate, components in zip(candidates, normalized):
            breakdown = ScoreBreakdown(**components)
            if self._config.aggregation is AggregationMethod.OWA:
                total = _owa_aggregate(
                    list(components.values()), self._config.owa_weights
                )
            else:
                total = sum(
                    weights[name] * value for name, value in components.items()
                )
            scored.append(
                ScoredCandidate(
                    candidate=candidate,
                    total_score=round(total, 6),
                    breakdown=breakdown,
                )
            )
        scored.sort(key=lambda s: (-s.total_score, s.candidate.candidate_id))
        return scored

    # ------------------------------------------------------------------
    # Components (raw, pre-normalization)
    # ------------------------------------------------------------------

    def _topic_coverage(
        self,
        candidate: Candidate,
        seed_expansions: dict[str, dict[str, float]],
    ) -> float:
        """Mean over seeds of the best expansion score the candidate matched.

        ``matched_keywords`` records which expanded keywords retrieved
        this candidate; interests are consulted too so that a candidate
        retrieved via one keyword still gets credit for others their
        profile covers.
        """
        if not seed_expansions:
            return 0.0
        interest_set = {normalize_keyword(i) for i in candidate.interests()}
        total = 0.0
        for expansions in seed_expansions.values():
            best = 0.0
            for keyword, score in expansions.items():
                matched = (
                    keyword in candidate.matched_keywords
                    or keyword in interest_set
                )
                if matched and score > best:
                    best = score
            total += best
        return total / len(seed_expansions)

    def _impact(self, candidate: Candidate) -> float:
        metrics = candidate.profile.metrics
        if self._config.impact_metric is ImpactMetric.CITATIONS:
            # Citations are heavy-tailed; log-compress before pool
            # normalization so one celebrity does not flatten the rest.
            return math.log1p(metrics.citations)
        return float(metrics.h_index)

    def _recency(
        self, candidate: Candidate, expanded: list[ExpandedKeyword]
    ) -> float:
        """Time-discounted topical publication mass.

        Each publication contributes ``topic_match * 0.5^(age/half_life)``.
        Scholar publications carry keyword lists (best evidence); DBLP
        publications contribute through title tokens.  Publications
        without a year (partial records) contribute nothing.
        """
        weights = {normalize_keyword(e.keyword): e.score for e in expanded}
        if not weights:
            return 0.0
        half_life = self._config.recency_half_life_years
        current_year = self._config.current_year
        publications = (
            candidate.scholar_publications
            if candidate.scholar_publications
            else candidate.dblp_publications
        )
        total = 0.0
        for pub in publications:
            year = pub.get("year")
            if year is None:
                continue
            match = _publication_topic_score(pub, weights)
            if match == 0.0:
                continue
            age = max(0, current_year - year)
            total += match * 0.5 ** (age / half_life)
        return total

    def _outlet_familiarity(self, candidate: Candidate, target_venue: str) -> float:
        """Combined reviews-for + publications-in the target outlet (§2.3)."""
        if not target_venue:
            return 0.0
        target = normalize_keyword(target_venue)
        reviews_for_outlet = sum(
            entry["count"]
            for entry in candidate.venues_reviewed
            if normalize_keyword(entry["venue"]) == target
        )
        papers_in_outlet = sum(
            1
            for pub in candidate.dblp_publications
            if normalize_keyword(pub.get("venue", "")) == target
        )
        return 0.6 * math.log1p(reviews_for_outlet) + 0.4 * math.log1p(
            papers_in_outlet
        )


def _publication_topic_score(pub: dict, weights: dict[str, float]) -> float:
    """How strongly one publication is about the expanded keyword set.

    Keyword lists (Scholar) match exactly; otherwise title tokens are
    compared against the expanded keywords' tokens, scaled down because
    title evidence is weaker.
    """
    keywords = pub.get("keywords")
    if keywords:
        best = 0.0
        for keyword in keywords:
            score = weights.get(normalize_keyword(keyword), 0.0)
            if score > best:
                best = score
        return best
    title_tokens = set(tokenize(pub.get("title", "")))
    if not title_tokens:
        return 0.0
    best = 0.0
    for keyword, score in weights.items():
        keyword_tokens = set(keyword.split(" "))
        if keyword_tokens and keyword_tokens <= title_tokens:
            if score > best:
                best = score
    return 0.7 * best


def _normalize_components(
    raw: list[dict[str, float]]
) -> list[dict[str, float]]:
    """Scale every component to [0, 1] by its pool maximum."""
    if not raw:
        return []
    maxima = {
        name: max(components[name] for components in raw)
        for name in raw[0]
    }
    normalized = []
    for components in raw:
        normalized.append(
            {
                name: (value / maxima[name] if maxima[name] > 0 else 0.0)
                for name, value in components.items()
            }
        )
    return normalized

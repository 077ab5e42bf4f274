"""Filtering phase (§2.2): COI, keyword threshold, expertise constraints.

Order matters for explainability, not correctness — every rule is
evaluated for every candidate so that the editor sees *all* the reasons
a candidate was dropped, the way the demo UI explains its decisions.

COI screening runs on the indexed :class:`~repro.scoring.coi.CoiScreen`
over precompiled candidate features.  The pairwise
:class:`~repro.core.coi.CoiDetector` is its reference oracle: verdicts
(flags and reason strings) are identical, only the CPU cost differs.
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.config import FilterConfig
from repro.core.models import Candidate, FilterDecision, VerifiedAuthor
from repro.obs import get_obs
from repro.scoring.coi import CoiScreen
from repro.scoring.features import FeatureStore, ScoringContext
from repro.text.normalize import canonical_person_name


#: How each expertise-constrained field is read off a candidate.
_BOUND_READERS = {
    "citations": attrgetter("profile.metrics.citations"),
    "h_index": attrgetter("profile.metrics.h_index"),
    "review_count": attrgetter("review_count"),
}


class FilterPhase:
    """Applies the three §2.2 filters and records every decision.

    Candidate features for COI screening are read through ``features``
    (a :class:`~repro.scoring.features.FeatureStore`, shared with the
    ranker by the pipeline; a private store is created when none is
    given).
    """

    def __init__(
        self,
        config: FilterConfig | None = None,
        current_year: int = 2019,
        features: FeatureStore | None = None,
        scoring_context: ScoringContext | None = None,
    ):
        self._config = config or FilterConfig()
        self._current_year = current_year
        self._features = features if features is not None else FeatureStore()
        if scoring_context is None:
            # Must mirror the ranker's context exactly, or the two
            # phases would invalidate each other's store entries.
            scoring_context = ScoringContext(
                current_year=current_year, half_life_years=3.0
            )
        self._scoring_context = scoring_context
        c = self._config.constraints
        bounds = (
            ("citations", c.min_citations, c.max_citations),
            ("h_index", c.min_h_index, c.max_h_index),
            ("review_count", c.min_reviews, c.max_reviews),
        )
        # Only the active bounds, so a config without expertise
        # constraints does no per-candidate work.
        self._bounds = [
            (name, _BOUND_READERS[name], low, high)
            for name, low, high in bounds
            if low is not None or high is not None
        ]
        self._pc_names = {
            canonical_person_name(name) for name in self._config.pc_members
        }

    def _verdicts(
        self,
        candidates: list[Candidate],
        authors: list[VerifiedAuthor],
        publication_years: dict[str, int] | None,
    ) -> list:
        # Author records are prebuilt once per manuscript, candidate
        # features come from the shared store.
        ctx = self._scoring_context
        with get_obs().span("scoring.coi_screen", candidates=len(candidates)):
            screen = CoiScreen(
                authors, self._config.coi, current_year=self._current_year
            )
            features = self._features.features_for_many(candidates, ctx)
            return [
                screen.screen(candidate_features, publication_years)
                for candidate_features in features
            ]

    def apply(
        self,
        candidates: list[Candidate],
        authors: list[VerifiedAuthor],
    ) -> tuple[list[Candidate], list[FilterDecision]]:
        """Filter candidates; returns (kept, all decisions)."""
        # Only the co-authorship lookback reads publication years.
        publication_years = (
            _collect_publication_years(candidates)
            if self._config.coi.coauthorship_lookback_years is not None
            else None
        )
        verdicts = self._verdicts(candidates, authors, publication_years)
        kept: list[Candidate] = []
        decisions: list[FilterDecision] = []
        for candidate, verdict in zip(candidates, verdicts):
            reasons: list[str] = []
            if verdict.has_conflict:
                reasons.extend(f"COI: {r}" for r in verdict.reasons)
            if candidate.keyword_match_score < self._config.min_keyword_score:
                reasons.append(
                    "keyword match score "
                    f"{candidate.keyword_match_score:.2f} below threshold "
                    f"{self._config.min_keyword_score:.2f}"
                )
            reasons.extend(self._constraint_reasons(candidate))
            if self._pc_names:
                if canonical_person_name(candidate.name) not in self._pc_names:
                    reasons.append("not a programme committee member")
            decision = FilterDecision(
                candidate_id=candidate.candidate_id,
                kept=not reasons,
                reasons=tuple(reasons),
            )
            decisions.append(decision)
            if decision.kept:
                kept.append(candidate)
        return kept, decisions

    def _constraint_reasons(self, candidate: Candidate) -> list[str]:
        reasons = []
        for field_name, read, low, high in self._bounds:
            value = read(candidate)
            if low is not None and value < low:
                reasons.append(f"{field_name} {value} below minimum {low}")
            if high is not None and value > high:
                reasons.append(f"{field_name} {value} above maximum {high}")
        return reasons


def _collect_publication_years(candidates: list[Candidate]) -> dict[str, int]:
    """Publication-id → year map from everything the candidates exposed."""
    years: dict[str, int] = {}
    for candidate in candidates:
        for pub in candidate.dblp_publications:
            years[pub["id"]] = pub["year"]
        for pub in candidate.scholar_publications:
            years.setdefault(pub["id"], pub["year"])
    return years

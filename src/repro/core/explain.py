"""Human-readable explanations of ranking decisions.

The demo UI (Fig. 5) lets the editor click a reviewer's total score to
see "score details for each ranking component".  This module renders
those details as prose an editor can act on — which keywords matched
and through which expansions, where the impact number comes from, what
the reviewing history looks like — rather than bare normalized floats.
"""

from __future__ import annotations

from repro.core.config import ImpactMetric, PipelineConfig
from repro.core.models import Manuscript, ScoredCandidate
from repro.ontology.expansion import ExpandedKeyword
from repro.text.normalize import normalize_keyword


def explain_candidate(
    scored: ScoredCandidate,
    manuscript: Manuscript,
    expanded: list[ExpandedKeyword],
    config: PipelineConfig | None = None,
) -> list[str]:
    """One explanation line per ranking component, strongest first.

    Components with zero contribution explain *why* they are zero (no
    Publons profile, never reviewed for the outlet, ...) — absence of
    evidence is exactly what the editor needs to see.
    """
    config = config or PipelineConfig()
    breakdown = scored.breakdown
    lines = [
        _explain_coverage(scored, manuscript, expanded),
        _explain_impact(scored, config),
        _explain_recency(scored, config),
        _explain_experience(scored),
        _explain_outlet(scored, manuscript),
        _explain_timeliness(scored),
    ]
    order = sorted(
        range(len(lines)),
        key=lambda i: -list(breakdown.as_dict().values())[i],
    )
    return [lines[i] for i in order]


# ----------------------------------------------------------------------
# Per-component renderers
# ----------------------------------------------------------------------


def _explain_coverage(
    scored: ScoredCandidate, manuscript: Manuscript, expanded: list[ExpandedKeyword]
) -> str:
    candidate = scored.candidate
    interests = {normalize_keyword(i) for i in candidate.interests()}
    matched = set(candidate.matched_keywords) | interests
    covered: list[str] = []
    for seed in manuscript.keywords:
        if normalize_keyword(seed) in matched:
            covered.append(f"{seed!r} directly")
            continue
        via = [
            e
            for e in expanded
            if e.seed == seed and normalize_keyword(e.keyword) in matched
        ]
        if via:
            best = max(via, key=lambda e: e.score)
            covered.append(f"{seed!r} via {best.keyword!r} (sc={best.score:.2f})")
    if not covered:
        return (
            f"topic coverage {scored.breakdown.topic_coverage:.2f}: no "
            "manuscript keyword matches this profile's interests"
        )
    return (
        f"topic coverage {scored.breakdown.topic_coverage:.2f}: covers "
        f"{len(covered)}/{len(manuscript.keywords)} keywords — "
        + "; ".join(covered)
    )


def _explain_impact(scored: ScoredCandidate, config: PipelineConfig) -> str:
    metrics = scored.candidate.profile.metrics
    if config.impact_metric is ImpactMetric.CITATIONS:
        detail = f"{metrics.citations} citations"
    else:
        detail = f"H-index {metrics.h_index}"
    return (
        f"scientific impact {scored.breakdown.scientific_impact:.2f}: "
        f"{detail} (i10 {metrics.i10_index})"
    )


def _explain_recency(scored: ScoredCandidate, config: PipelineConfig) -> str:
    publications = (
        scored.candidate.scholar_publications
        or scored.candidate.dblp_publications
    )
    if not publications:
        return (
            f"recency {scored.breakdown.recency:.2f}: no publication "
            "record retrieved"
        )
    # Partial records without a year add nothing to the recency score,
    # so they are neither counted nor dated here.
    years = [p["year"] for p in publications if p.get("year") is not None]
    if not years:
        return (
            f"recency {scored.breakdown.recency:.2f}: none of the "
            f"{len(publications)} retrieved publication(s) has a year"
        )
    recent_cutoff = config.current_year - int(config.recency_half_life_years)
    recent = sum(1 for year in years if year >= recent_cutoff)
    latest = max(years)
    return (
        f"recency {scored.breakdown.recency:.2f}: {recent} publication(s) "
        f"since {recent_cutoff}, most recent {latest}"
    )


def _explain_experience(scored: ScoredCandidate) -> str:
    count = scored.candidate.review_count
    if count == 0:
        return (
            f"review experience {scored.breakdown.review_experience:.2f}: "
            "no Publons review history"
        )
    venues = len(scored.candidate.venues_reviewed)
    return (
        f"review experience {scored.breakdown.review_experience:.2f}: "
        f"{count} review(s) across {venues} outlet(s)"
    )


def _explain_outlet(scored: ScoredCandidate, manuscript: Manuscript) -> str:
    if not manuscript.target_venue:
        return (
            f"outlet familiarity {scored.breakdown.outlet_familiarity:.2f}: "
            "no target outlet specified"
        )
    target = normalize_keyword(manuscript.target_venue)
    reviews = sum(
        entry["count"]
        for entry in scored.candidate.venues_reviewed
        if normalize_keyword(entry["venue"]) == target
    )
    papers = sum(
        1
        for pub in scored.candidate.dblp_publications
        if normalize_keyword(pub.get("venue", "")) == target
    )
    if reviews == 0 and papers == 0:
        return (
            f"outlet familiarity {scored.breakdown.outlet_familiarity:.2f}: "
            f"no history with {manuscript.target_venue!r}"
        )
    return (
        f"outlet familiarity {scored.breakdown.outlet_familiarity:.2f}: "
        f"{reviews} review(s) for and {papers} paper(s) in "
        f"{manuscript.target_venue!r}"
    )


def _explain_timeliness(scored: ScoredCandidate) -> str:
    rate = scored.candidate.on_time_rate
    if rate is None:
        return (
            f"timeliness {scored.breakdown.timeliness:.2f}: on-time rate "
            "unknown (no Publons profile)"
        )
    return (
        f"timeliness {scored.breakdown.timeliness:.2f}: returned "
        f"{rate:.0%} of past reviews on time"
    )

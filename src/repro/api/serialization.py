"""JSON (de)serialization between API payloads and domain objects."""

from __future__ import annotations

from repro.api.router import ApiError, ValidationError
from repro.core.config import (
    AffiliationCoiLevel,
    AggregationMethod,
    CoiConfig,
    ExpertiseConstraints,
    FilterConfig,
    ImpactMetric,
    PipelineConfig,
    RankingWeights,
)
from repro.core.models import (
    Manuscript,
    ManuscriptAuthor,
    RecommendationResult,
    ScoredCandidate,
)


def manuscript_from_payload(payload: dict) -> Manuscript:
    """Parse the submission-form payload (paper Fig. 3) into a Manuscript.

    Raises a 400 :class:`ApiError` on structural problems so the router
    can surface a clean validation message.  Author names and keywords
    must be non-empty JSON strings: a ``null`` or blank one is rejected
    here, before any source is crawled for it.  The optional text fields
    (``title``, ``abstract``, ``target_venue`` and each author's
    ``affiliation`` and ``country``) go through :func:`as_text`.
    """
    try:
        authors = tuple(
            author_from_payload(author, f"authors[{index}]")
            for index, author in enumerate(payload["authors"])
        )
        manuscript = Manuscript(
            title=as_text(payload.get("title"), "title"),
            keywords=tuple(
                as_name(keyword, f"keywords[{index}]")
                for index, keyword in enumerate(payload["keywords"])
            ),
            authors=authors,
            target_venue=as_text(payload.get("target_venue"), "target_venue"),
            abstract=as_text(payload.get("abstract"), "abstract"),
        )
    except KeyError as exc:
        raise ApiError(400, f"manuscript payload missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid manuscript payload: {exc}") from exc
    return manuscript


def author_from_payload(payload: dict, field: str) -> ManuscriptAuthor:
    """One ``{name, affiliation, country}`` author object.

    Errors name the field under ``field`` (``authors[0].affiliation``).
    """
    return ManuscriptAuthor(
        name=as_name(payload["name"], f"{field}.name"),
        affiliation=as_text(payload.get("affiliation"), f"{field}.affiliation"),
        country=as_text(payload.get("country"), f"{field}.country"),
    )


def batch_from_payload(payload: object) -> list[tuple[str, Manuscript]]:
    """Parse a batch: a non-empty list of ``{paper_id, manuscript}`` objects.

    The ``/assign`` body's ``manuscripts`` and the CLI's ``--batch`` file
    share this format.  A paper id must be a non-empty JSON string, so
    ``null`` is not read as ``"None"`` nor ``5`` as ``"5"``; each error
    names the entry's field as ``manuscripts[i]...``.
    """
    if not isinstance(payload, list) or not payload:
        raise ValidationError("manuscripts must be a non-empty list")
    entries = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"manuscripts[{index}] must be a JSON object, got {entry!r}"
            )
        paper_id = as_name(entry.get("paper_id"), f"manuscripts[{index}].paper_id")
        entries.append((paper_id, manuscript_from_payload(entry.get("manuscript", {}))))
    return entries


def _object(payload: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent)."""
    value = payload.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r}")
    return value


def as_int(value: object, name: str) -> int:
    """A client-supplied integer field, or a typed 400 naming it.

    Only a JSON integer passes: a boolean, a fraction or a numeric
    string is rejected, never truncated or coerced.  The error is the
    typed :class:`ValidationError` because the router answers a bare
    ``ValueError`` escaping a handler with a 500, not a 400.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def as_float(value: object, name: str) -> float:
    """A client-supplied number field, or a typed 400 naming it.

    Booleans are rejected rather than read as 0 or 1.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc


def as_bool(value: object, name: str) -> bool:
    """A client-supplied flag, or a typed 400 naming it.

    Only a JSON boolean passes: the string ``"false"`` is not read as
    true, nor ``0`` as false.
    """
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def as_name(value: object, name: str) -> str:
    """A client-supplied name or keyword, or a typed 400 naming it.

    Only a non-empty JSON string passes: ``null`` is not read as the
    string ``"None"``, and a blank string is not crawled.
    """
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
    return value


def as_text(value: object, name: str) -> str:
    """An optional client-supplied text field, or a typed 400 naming it.

    An absent or ``null`` field is the empty string and a JSON string
    passes unchanged; anything else is rejected, so ``5`` is not read as
    the venue ``"5"`` nor ``null`` as the institution ``"None"``.
    """
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


#: The keys the ``coi`` config object accepts.
_COI_KEYS = frozenset({"check_coauthorship", "lookback_years", "affiliation_level"})


def config_from_payload(payload: dict) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from optional payload overrides.

    Recognized keys mirror the demo UI's form controls: ``weights`` (a
    component → weight map), ``impact_metric``, ``min_keyword_score``,
    ``coi`` (``check_coauthorship``, ``affiliation_level``,
    ``lookback_years``), ``constraints`` (the six range bounds),
    ``pc_members`` (a list of names), ``aggregation`` / ``owa_weights``,
    ``max_candidates``, ``workers`` (extraction fan-out; output is
    identical at any value), ``warm_cache`` / ``warm_cache_ttl`` /
    ``warm_cache_capacity`` (the deployment-shared warm-path retrieval
    plane; rankings are identical warm or cold) and ``top_k`` (rank
    only the exact best k).  ``weights``, ``coi`` and ``constraints``
    must be JSON objects whose keys are all known, the two flags JSON
    booleans, the integer fields JSON integers and ``min_keyword_score``
    a number.  Unknown top-level keys are ignored.
    """
    try:
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, got {payload!r}")
        weights = RankingWeights(**_object(payload, "weights"))
        coi_payload = _object(payload, "coi")
        unknown = sorted(set(coi_payload) - _COI_KEYS)
        if unknown:
            raise ValueError(f"unknown coi keys: {', '.join(unknown)}")
        coi = CoiConfig(
            check_coauthorship=as_bool(
                coi_payload.get("check_coauthorship", True), "check_coauthorship"
            ),
            coauthorship_lookback_years=coi_payload.get("lookback_years"),
            affiliation_level=AffiliationCoiLevel(
                coi_payload.get("affiliation_level", "university")
            ),
        )
        constraints = ExpertiseConstraints(**_object(payload, "constraints"))
        pc_members = payload.get("pc_members", [])
        if not isinstance(pc_members, list) or not all(
            isinstance(name, str) for name in pc_members
        ):
            raise ValueError(f"pc_members must be a list of names, got {pc_members!r}")
        filters = FilterConfig(
            coi=coi,
            min_keyword_score=as_float(
                payload.get("min_keyword_score", 0.5), "min_keyword_score"
            ),
            constraints=constraints,
            pc_members=tuple(pc_members),
        )
        owa_weights = payload.get("owa_weights")
        top_k = payload.get("top_k")
        return PipelineConfig(
            filters=filters,
            weights=weights,
            aggregation=AggregationMethod(
                payload.get("aggregation", "weighted_sum")
            ),
            owa_weights=tuple(owa_weights) if owa_weights is not None else None,
            impact_metric=ImpactMetric(payload.get("impact_metric", "h_index")),
            max_candidates=as_int(payload.get("max_candidates", 50), "max_candidates"),
            workers=as_int(payload.get("workers", 1), "workers"),
            warm_cache=as_bool(payload.get("warm_cache", False), "warm_cache"),
            warm_cache_ttl=payload.get("warm_cache_ttl"),
            warm_cache_capacity=as_int(
                payload.get("warm_cache_capacity", 8192), "warm_cache_capacity"
            ),
            top_k=as_int(top_k, "top_k") if top_k is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid config payload: {exc}") from exc


def slo_report_to_payload(engine) -> dict:
    """The full SLO report for one deployment's engine.

    Shared by ``GET /api/v1/slo`` and the CLI's ``slo report`` so both
    surfaces render the exact same structure: the overall verdict plus
    every spec's status (good-ratio, budget consumption, per-tier burn
    rates and firing state), sorted by name.
    """
    return {
        "verdict": engine.verdict(),
        "slos": [status.to_dict() for status in engine.report()],
    }


def scored_candidate_to_payload(scored: ScoredCandidate) -> dict:
    """One row of the Fig. 5 result table, with the score breakdown."""
    candidate = scored.candidate
    return {
        "candidate_id": candidate.candidate_id,
        "name": candidate.name,
        "total_score": scored.total_score,
        "breakdown": scored.breakdown.as_dict(),
        "interests": list(candidate.interests()),
        "citations": candidate.profile.metrics.citations,
        "h_index": candidate.profile.metrics.h_index,
        "review_count": candidate.review_count,
        "matched_keywords": dict(candidate.matched_keywords),
    }


def result_to_payload(result: RecommendationResult, top_k: int | None = None) -> dict:
    """The full recommendation response."""
    ranked = result.ranked if top_k is None else result.top(top_k)
    return {
        "manuscript": {
            "title": result.manuscript.title,
            "keywords": list(result.manuscript.keywords),
            "target_venue": result.manuscript.target_venue,
        },
        "verified_authors": [
            {
                "name": author.submitted.name,
                "canonical_name": author.profile.canonical_name,
                "ambiguous": author.ambiguous,
                "matches_considered": len(author.candidates_considered),
            }
            for author in result.verified_authors
        ],
        "expanded_keywords": [
            {"keyword": e.keyword, "score": e.score, "seed": e.seed}
            for e in result.expanded_keywords
        ],
        "recommendations": [scored_candidate_to_payload(s) for s in ranked],
        "rejected": [
            {"candidate_id": d.candidate_id, "reasons": list(d.reasons)}
            for d in result.rejected()
        ],
        "phases": [
            {
                "phase": report.phase,
                "wall_seconds": report.wall_seconds,
                "virtual_seconds": report.virtual_seconds,
                "requests": report.requests,
                "items_in": report.items_in,
                "items_out": report.items_out,
            }
            for report in result.phase_reports
        ],
    }

"""Tests for payload ↔ domain-object conversion."""

import pytest

from repro.api.router import ApiError
from repro.api.serialization import (
    config_from_payload,
    manuscript_from_payload,
    result_to_payload,
    scored_candidate_to_payload,
)
from repro.core.config import AffiliationCoiLevel, ImpactMetric
from repro.core.models import (
    Candidate,
    FilterDecision,
    Manuscript,
    ManuscriptAuthor,
    PhaseReport,
    RecommendationResult,
    ScoreBreakdown,
    ScoredCandidate,
)
from repro.scholarly.records import MergedProfile, Metrics


class TestManuscriptFromPayload:
    def test_full_payload(self):
        manuscript = manuscript_from_payload(
            {
                "title": "T",
                "keywords": ["rdf", "sparql"],
                "authors": [
                    {"name": "Ada", "affiliation": "MIT", "country": "US"}
                ],
                "target_venue": "Journal X",
                "abstract": "Short.",
            }
        )
        assert manuscript.keywords == ("rdf", "sparql")
        assert manuscript.authors[0].affiliation == "MIT"
        assert manuscript.target_venue == "Journal X"

    def test_minimal_payload(self):
        manuscript = manuscript_from_payload(
            {"keywords": ["rdf"], "authors": [{"name": "Ada"}]}
        )
        assert manuscript.title == ""
        assert manuscript.authors[0].country == ""

    def test_null_optional_fields_are_empty(self):
        manuscript = manuscript_from_payload(
            {
                "title": None,
                "keywords": ["rdf"],
                "authors": [{"name": "Ada", "affiliation": None, "country": None}],
                "target_venue": None,
                "abstract": None,
            }
        )
        assert manuscript.title == manuscript.abstract == manuscript.target_venue == ""
        assert manuscript.authors[0].affiliation == manuscript.authors[0].country == ""

    def test_missing_keywords_is_api_error(self):
        with pytest.raises(ApiError) as exc_info:
            manuscript_from_payload({"authors": [{"name": "Ada"}]})
        assert exc_info.value.status == 400
        assert "keywords" in exc_info.value.message

    def test_missing_authors_is_api_error(self):
        with pytest.raises(ApiError):
            manuscript_from_payload({"keywords": ["rdf"]})

    def test_empty_keywords_is_api_error(self):
        with pytest.raises(ApiError):
            manuscript_from_payload({"keywords": [], "authors": [{"name": "A"}]})

    def test_author_without_name_is_api_error(self):
        with pytest.raises(ApiError):
            manuscript_from_payload({"keywords": ["k"], "authors": [{}]})


class TestConfigFromPayload:
    def test_empty_payload_gives_defaults(self):
        config = config_from_payload({})
        assert config.impact_metric is ImpactMetric.H_INDEX
        assert config.max_candidates == 50

    def test_weights_override(self):
        config = config_from_payload({"weights": {"topic_coverage": 0.9}})
        assert config.weights.topic_coverage == 0.9

    def test_unknown_weight_rejected(self):
        with pytest.raises(ApiError):
            config_from_payload({"weights": {"charisma": 1.0}})

    def test_coi_overrides(self):
        config = config_from_payload(
            {
                "coi": {
                    "check_coauthorship": False,
                    "affiliation_level": "country",
                    "lookback_years": 5,
                }
            }
        )
        assert not config.filters.coi.check_coauthorship
        assert config.filters.coi.affiliation_level is AffiliationCoiLevel.COUNTRY
        assert config.filters.coi.coauthorship_lookback_years == 5

    def test_bad_affiliation_level_rejected(self):
        with pytest.raises(ApiError):
            config_from_payload({"coi": {"affiliation_level": "continent"}})

    def test_constraints(self):
        config = config_from_payload(
            {"constraints": {"min_citations": 10, "max_h_index": 40}}
        )
        assert config.filters.constraints.min_citations == 10
        assert config.filters.constraints.max_h_index == 40

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ApiError):
            config_from_payload({"constraints": {"min_charm": 1}})

    def test_impact_metric(self):
        config = config_from_payload({"impact_metric": "citations"})
        assert config.impact_metric is ImpactMetric.CITATIONS

    def test_pc_members(self):
        config = config_from_payload({"pc_members": ["Ada", "Bob"]})
        assert config.filters.pc_members == ("Ada", "Bob")

    def test_owa_aggregation(self):
        from repro.core.config import AggregationMethod

        config = config_from_payload(
            {"aggregation": "owa", "owa_weights": [0.5, 0.3, 0.2]}
        )
        assert config.aggregation is AggregationMethod.OWA
        assert config.owa_weights == (0.5, 0.3, 0.2)

    def test_bad_aggregation_rejected(self):
        with pytest.raises(ApiError):
            config_from_payload({"aggregation": "geometric"})

    def test_bad_owa_weights_rejected(self):
        with pytest.raises(ApiError):
            config_from_payload({"owa_weights": [-1.0]})


class TestResultSerialization:
    def make_result(self):
        candidate = Candidate(
            candidate_id="sch_1",
            name="Ada",
            profile=MergedProfile(
                canonical_name="Ada",
                source_ids=(),
                interests=("rdf",),
                metrics=Metrics(citations=10, h_index=2),
            ),
            matched_keywords={"rdf": 1.0},
        )
        candidate.review_count = 4
        scored = ScoredCandidate(candidate, 0.75, ScoreBreakdown(topic_coverage=1.0))
        return RecommendationResult(
            manuscript=Manuscript(
                title="T", keywords=("rdf",), authors=(ManuscriptAuthor("A"),)
            ),
            verified_authors=[],
            expanded_keywords=[],
            candidates=[candidate],
            filter_decisions=[FilterDecision("sch_2", False, ("COI: x",))],
            ranked=[scored],
            phase_reports=[PhaseReport(phase="rank", requests=0)],
        )

    def test_scored_candidate_payload(self):
        result = self.make_result()
        payload = scored_candidate_to_payload(result.ranked[0])
        assert payload["name"] == "Ada"
        assert payload["total_score"] == 0.75
        assert payload["breakdown"]["topic_coverage"] == 1.0
        assert payload["h_index"] == 2
        assert payload["review_count"] == 4

    def test_result_payload_shape(self):
        payload = result_to_payload(self.make_result())
        assert payload["manuscript"]["title"] == "T"
        assert len(payload["recommendations"]) == 1
        assert payload["rejected"][0]["reasons"] == ["COI: x"]
        assert payload["phases"][0]["phase"] == "rank"

    def test_top_k_truncates(self):
        payload = result_to_payload(self.make_result(), top_k=0)
        # top_k=0 is nonsensical but must not crash serialization layer;
        # handler-level validation rejects it before this point.
        assert payload["recommendations"] == []

    def test_payload_is_json_serializable(self):
        import json

        json.dumps(result_to_payload(self.make_result()))

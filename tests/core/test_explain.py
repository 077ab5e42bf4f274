"""Tests for ranking explanations."""

import pytest

from repro.core.config import ImpactMetric, PipelineConfig
from repro.core.explain import explain_candidate
from repro.core.models import (
    Candidate,
    Manuscript,
    ManuscriptAuthor,
    ScoreBreakdown,
    ScoredCandidate,
)
from repro.core.pipeline import Minaret
from repro.ontology.expansion import ExpandedKeyword
from repro.scholarly.records import MergedProfile, Metrics


def make_scored(
    interests=("Semantic Web",),
    matched=None,
    review_count=3,
    on_time_rate=0.8,
    venues_reviewed=(),
    dblp_pubs=(),
    scholar_pubs=(),
    breakdown=None,
):
    candidate = Candidate(
        candidate_id="c",
        name="Ada",
        profile=MergedProfile(
            canonical_name="Ada",
            source_ids=(),
            interests=tuple(interests),
            metrics=Metrics(citations=120, h_index=7, i10_index=4),
        ),
        matched_keywords=dict(matched or {}),
    )
    candidate.review_count = review_count
    candidate.on_time_rate = on_time_rate
    candidate.venues_reviewed = list(venues_reviewed)
    candidate.dblp_publications = list(dblp_pubs)
    candidate.scholar_publications = list(scholar_pubs)
    return ScoredCandidate(
        candidate, 0.7, breakdown or ScoreBreakdown(topic_coverage=0.9)
    )


MANUSCRIPT = Manuscript(
    title="T",
    keywords=("Semantic Web", "Big Data"),
    authors=(ManuscriptAuthor("A"),),
    target_venue="Journal X",
)

EXPANDED = [
    ExpandedKeyword("Semantic Web", "semantic-web", 1.0, "Semantic Web", 0),
    ExpandedKeyword("Big Data", "big-data", 1.0, "Big Data", 0),
    ExpandedKeyword("MapReduce", "mapreduce", 0.9, "Big Data", 1),
]


class TestExplainCandidate:
    def test_six_component_lines(self):
        lines = explain_candidate(make_scored(), MANUSCRIPT, EXPANDED)
        assert len(lines) == 6

    def test_direct_coverage_named(self):
        lines = explain_candidate(make_scored(), MANUSCRIPT, EXPANDED)
        coverage = next(l for l in lines if l.startswith("topic coverage"))
        assert "'Semantic Web' directly" in coverage

    def test_expansion_coverage_named(self):
        scored = make_scored(interests=("MapReduce",))
        coverage = next(
            l
            for l in explain_candidate(scored, MANUSCRIPT, EXPANDED)
            if l.startswith("topic coverage")
        )
        assert "via 'MapReduce'" in coverage
        assert "sc=0.90" in coverage

    def test_no_coverage_explained(self):
        scored = make_scored(interests=("Knitting",))
        coverage = next(
            l
            for l in explain_candidate(scored, MANUSCRIPT, EXPANDED)
            if l.startswith("topic coverage")
        )
        assert "no manuscript keyword" in coverage

    def test_impact_metric_configurable(self):
        scored = make_scored()
        h_lines = explain_candidate(scored, MANUSCRIPT, EXPANDED)
        assert any("H-index 7" in l for l in h_lines)
        citation_config = PipelineConfig(impact_metric=ImpactMetric.CITATIONS)
        c_lines = explain_candidate(scored, MANUSCRIPT, EXPANDED, citation_config)
        assert any("120 citations" in l for l in c_lines)

    def test_missing_publons_explained(self):
        scored = make_scored(review_count=0, on_time_rate=None)
        lines = explain_candidate(scored, MANUSCRIPT, EXPANDED)
        assert any("no Publons review history" in l for l in lines)
        assert any("on-time rate unknown" in l for l in lines)

    def test_outlet_history_counted(self):
        scored = make_scored(
            venues_reviewed=[{"venue": "Journal X", "venue_id": "j", "count": 4}],
            dblp_pubs=[{"id": "p", "title": "t", "year": 2018, "venue": "Journal X"}],
        )
        lines = explain_candidate(scored, MANUSCRIPT, EXPANDED)
        assert any("4 review(s) for and 1 paper(s) in 'Journal X'" in l for l in lines)

    def test_recency_from_publications(self):
        scored = make_scored(
            scholar_pubs=[
                {"id": "p1", "title": "t", "year": 2018, "keywords": []},
                {"id": "p2", "title": "t", "year": 2010, "keywords": []},
            ]
        )
        lines = explain_candidate(scored, MANUSCRIPT, EXPANDED)
        assert any("most recent 2018" in l for l in lines)

    @pytest.mark.parametrize(
        "partial",
        [
            pytest.param({"id": "p0", "year": None, "keywords": []}, id="year-none"),
            pytest.param({"id": "p0", "keywords": []}, id="year-missing"),
        ],
    )
    def test_recency_skips_yearless_records(self, partial):
        # Ranking skips publications without a year; the explanation
        # must neither crash on them nor count them.
        dated = {"id": "p1", "title": "t", "year": 2018, "keywords": []}
        scored = make_scored(scholar_pubs=[dict(partial), dated])
        recency = next(
            l
            for l in explain_candidate(scored, MANUSCRIPT, EXPANDED)
            if l.startswith("recency")
        )
        assert recency.endswith("1 publication(s) since 2016, most recent 2018")

        scored = make_scored(scholar_pubs=[dict(partial)])
        recency = next(
            l
            for l in explain_candidate(scored, MANUSCRIPT, EXPANDED)
            if l.startswith("recency")
        )
        assert "none of the 1 retrieved publication(s) has a year" in recency

    def test_strongest_component_first(self):
        scored = make_scored(
            breakdown=ScoreBreakdown(review_experience=1.0, topic_coverage=0.1)
        )
        lines = explain_candidate(scored, MANUSCRIPT, EXPANDED)
        assert lines[0].startswith("review experience")

    def test_timeliness_rate_rendered(self):
        lines = explain_candidate(make_scored(on_time_rate=0.75), MANUSCRIPT, EXPANDED)
        assert any("75% of past reviews on time" in l for l in lines)


    def test_real_pipeline_output_explains(self, hub, manuscript):
        minaret = Minaret(hub)
        result = minaret.recommend(manuscript)
        lines = explain_candidate(
            result.ranked[0], result.manuscript, result.expanded_keywords,
            minaret.config,
        )
        assert len(lines) == 6
        assert any(line.startswith("topic coverage") for line in lines)

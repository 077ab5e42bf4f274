"""Tests for the filtering phase."""

import pytest

from repro.core.config import (
    AffiliationCoiLevel,
    CoiConfig,
    ExpertiseConstraints,
    FilterConfig,
)
from repro.core import filtering
from repro.core.filtering import FilterPhase
from repro.core.models import Candidate, ManuscriptAuthor, VerifiedAuthor
from repro.scholarly.records import MergedProfile, Metrics

NO_COI = CoiConfig(
    check_coauthorship=False, affiliation_level=AffiliationCoiLevel.NONE
)


def make_candidate(
    candidate_id="c1",
    name="Reviewer R",
    keyword_score=0.9,
    citations=100,
    h_index=10,
    review_count=5,
    pub_ids=(),
):
    return Candidate(
        candidate_id=candidate_id,
        name=name,
        profile=MergedProfile(
            canonical_name=name,
            source_ids=(),
            publication_ids=tuple(pub_ids),
            metrics=Metrics(citations=citations, h_index=h_index),
        ),
        keyword_match_score=keyword_score,
        review_count=review_count,
    )


def make_author(pub_ids=()):
    return VerifiedAuthor(
        submitted=ManuscriptAuthor("Author A"),
        profile=MergedProfile(
            canonical_name="Author A",
            source_ids=(),
            publication_ids=tuple(pub_ids),
        ),
    )


class TestKeywordThreshold:
    def test_below_threshold_rejected(self):
        phase = FilterPhase(FilterConfig(coi=NO_COI, min_keyword_score=0.8))
        kept, decisions = phase.apply(
            [make_candidate(keyword_score=0.6)], [make_author()]
        )
        assert kept == []
        assert "below threshold" in decisions[0].reasons[0]

    def test_at_threshold_kept(self):
        phase = FilterPhase(FilterConfig(coi=NO_COI, min_keyword_score=0.8))
        kept, __ = phase.apply([make_candidate(keyword_score=0.8)], [make_author()])
        assert len(kept) == 1


class TestExpertiseConstraints:
    def test_citation_floor(self):
        config = FilterConfig(
            coi=NO_COI, constraints=ExpertiseConstraints(min_citations=500)
        )
        kept, decisions = phase_apply(config, make_candidate(citations=100))
        assert kept == []
        assert any("citations" in r for r in decisions[0].reasons)

    def test_citation_ceiling(self):
        config = FilterConfig(
            coi=NO_COI, constraints=ExpertiseConstraints(max_citations=50)
        )
        kept, decisions = phase_apply(config, make_candidate(citations=100))
        assert kept == []
        assert any("above maximum" in r for r in decisions[0].reasons)

    def test_h_index_range(self):
        config = FilterConfig(
            coi=NO_COI,
            constraints=ExpertiseConstraints(min_h_index=5, max_h_index=20),
        )
        kept, __ = phase_apply(config, make_candidate(h_index=10))
        assert len(kept) == 1

    def test_review_minimum(self):
        config = FilterConfig(
            coi=NO_COI, constraints=ExpertiseConstraints(min_reviews=10)
        )
        kept, decisions = phase_apply(config, make_candidate(review_count=3))
        assert kept == []
        assert any("review_count" in r for r in decisions[0].reasons)

    def test_all_constraints_satisfied(self):
        config = FilterConfig(
            coi=NO_COI,
            constraints=ExpertiseConstraints(
                min_citations=50, min_h_index=5, min_reviews=1
            ),
        )
        kept, __ = phase_apply(config, make_candidate())
        assert len(kept) == 1


class TestCoiIntegration:
    def test_coauthor_rejected_with_reason_prefix(self):
        phase = FilterPhase(FilterConfig())
        kept, decisions = phase.apply(
            [make_candidate(pub_ids=("p1",))], [make_author(pub_ids=("p1",))]
        )
        assert kept == []
        assert decisions[0].reasons[0].startswith("COI:")


class TestPcMode:
    def test_non_member_rejected(self):
        config = FilterConfig(coi=NO_COI, pc_members=("Someone Else",))
        kept, decisions = phase_apply(config, make_candidate(name="Reviewer R"))
        assert kept == []
        assert "programme committee" in decisions[0].reasons[0]

    def test_member_kept(self):
        config = FilterConfig(coi=NO_COI, pc_members=("Reviewer R",))
        kept, __ = phase_apply(config, make_candidate(name="Reviewer R"))
        assert len(kept) == 1

    def test_membership_is_name_normalized(self):
        config = FilterConfig(coi=NO_COI, pc_members=("reviewer   r.",))
        kept, __ = phase_apply(config, make_candidate(name="Reviewer R"))
        assert len(kept) == 1


class TestDecisions:
    def test_every_candidate_gets_a_decision(self):
        phase = FilterPhase(FilterConfig(coi=NO_COI))
        candidates = [make_candidate(f"c{i}") for i in range(5)]
        kept, decisions = phase.apply(candidates, [make_author()])
        assert len(decisions) == 5
        assert all(d.kept for d in decisions)

    def test_multiple_reasons_accumulate(self):
        config = FilterConfig(
            min_keyword_score=0.95,
            constraints=ExpertiseConstraints(min_citations=10_000),
        )
        phase = FilterPhase(config)
        kept, decisions = phase.apply(
            [make_candidate(keyword_score=0.5, pub_ids=("p1",))],
            [make_author(pub_ids=("p1",))],
        )
        assert kept == []
        assert len(decisions[0].reasons) >= 3

    def test_order_preserved(self):
        phase = FilterPhase(FilterConfig(coi=NO_COI))
        candidates = [make_candidate(f"c{i}") for i in range(4)]
        kept, __ = phase.apply(candidates, [make_author()])
        assert [c.candidate_id for c in kept] == ["c0", "c1", "c2", "c3"]


def phase_apply(config, candidate):
    phase = FilterPhase(config)
    return phase.apply([candidate], [make_author()])


class TestPublicationYears:
    """The year map is built only for the co-authorship lookback."""

    def test_not_built_without_a_lookback(self, monkeypatch):
        def refuse(candidates):
            raise AssertionError("year map built without a lookback")

        monkeypatch.setattr(filtering, "_collect_publication_years", refuse)
        phase = FilterPhase(FilterConfig())
        kept, decisions = phase.apply(
            [make_candidate(pub_ids=("p1",))], [make_author(pub_ids=("p1",))]
        )
        assert kept == []
        assert decisions[0].reasons == (
            "COI: co-authored 1 publication(s) with 'Author A'",
        )

    def test_lookback_reads_candidate_years(self):
        old = make_candidate(pub_ids=("p1",))
        old.dblp_publications = [{"id": "p1", "year": 2001}]
        phase = FilterPhase(
            FilterConfig(coi=CoiConfig(coauthorship_lookback_years=5))
        )
        kept, __ = phase.apply([old], [make_author(pub_ids=("p1",))])
        assert kept == [old]

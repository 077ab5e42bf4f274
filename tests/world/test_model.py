"""Tests for the world model and the ground-truth oracle."""

import pytest

from repro.scholarly.records import Affiliation
from repro.world.model import GroundTruthOracle


@pytest.fixture(scope="module")
def oracle(world):
    return GroundTruthOracle(world)


class TestAffiliationRecords:
    def test_overlaps(self):
        a = Affiliation("X", "Y", 2010, 2015)
        b = Affiliation("X", "Y", 2015, 2020)
        c = Affiliation("X", "Y", 2016, None)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert b.overlaps(c)


class TestWorldAccessors:
    def test_primary_topic_is_max_expertise(self, world):
        for author in list(world.authors.values())[:10]:
            primary = author.primary_topic()
            assert author.topic_expertise[primary] == max(
                author.topic_expertise.values()
            )

    def test_authors_by_name(self, world):
        author = next(iter(world.authors.values()))
        assert author in world.authors_by_name(author.name)

    def test_journal_venues_sorted(self, world):
        journals = world.journal_venues()
        assert [v.venue_id for v in journals] == sorted(v.venue_id for v in journals)

    def test_records_per_year_totals(self, world):
        stats = world.dblp_records_per_year()
        total = sum(sum(by_type.values()) for by_type in stats.values())
        assert total == len(world.publications)


class TestOracleRelevance:
    def test_expert_scores_higher_than_outsider(self, world, oracle):
        author = next(iter(world.authors.values()))
        own_topics = sorted(author.topic_expertise)[:2]
        outsider = next(
            a
            for a in world.authors.values()
            if not (set(own_topics) & a.topics())
        )
        assert oracle.topic_relevance(
            author.author_id, own_topics
        ) > oracle.topic_relevance(outsider.author_id, own_topics)

    def test_empty_topics_zero(self, world, oracle):
        author_id = next(iter(world.authors))
        assert oracle.topic_relevance(author_id, []) == 0.0

    def test_relevance_bounded(self, world, oracle):
        author = next(iter(world.authors.values()))
        topics = sorted(author.topic_expertise)
        value = oracle.topic_relevance(author.author_id, topics)
        assert 0.0 <= value <= 1.0

    def test_utility_discounts_unresponsiveness(self, world, oracle):
        author = next(iter(world.authors.values()))
        topics = sorted(author.topic_expertise)[:1]
        utility = oracle.reviewer_utility(author.author_id, topics)
        relevance = oracle.topic_relevance(author.author_id, topics)
        assert utility <= relevance


class TestOracleIdealReviewers:
    def test_excludes_manuscript_authors(self, world, oracle):
        author = next(iter(world.authors.values()))
        topics = sorted(author.topic_expertise)[:2]
        ideal = oracle.ideal_reviewers(topics, [author.author_id], k=20)
        assert author.author_id not in ideal

    def test_respects_k(self, world, oracle):
        author = next(iter(world.authors.values()))
        topics = sorted(author.topic_expertise)[:2]
        assert len(oracle.ideal_reviewers(topics, [author.author_id], k=5)) <= 5

    def test_coi_enforcement_removes_coauthors(self, world, oracle):
        # Find an author with coauthors.
        author_id = next(a for a, c in world.coauthors.items() if c)
        author = world.authors[author_id]
        topics = sorted(author.topic_expertise)[:2]
        with_coi = set(
            oracle.ideal_reviewers(topics, [author_id], k=200, enforce_coi=False)
        )
        without_coi = set(
            oracle.ideal_reviewers(topics, [author_id], k=200, enforce_coi=True)
        )
        assert not (without_coi & world.coauthors[author_id])
        assert with_coi >= without_coi

    def test_sorted_by_utility(self, world, oracle):
        author = next(iter(world.authors.values()))
        topics = sorted(author.topic_expertise)[:2]
        ideal = oracle.ideal_reviewers(topics, [author.author_id], k=10)
        utilities = [oracle.reviewer_utility(a, topics) for a in ideal]
        assert utilities == sorted(utilities, reverse=True)


class TestOracleCoi:
    def test_self_is_conflicted(self, world, oracle):
        author_id = next(iter(world.authors))
        assert oracle.has_coi(author_id, [author_id])

    def test_coauthor_is_conflicted(self, world, oracle):
        author_id = next(a for a, c in world.coauthors.items() if c)
        coauthor = next(iter(world.coauthors[author_id]))
        assert oracle.has_coi(coauthor, [author_id])

    def test_shared_institution_is_conflicted(self, world, oracle):
        authors = list(world.authors.values())
        pair = None
        for i, a in enumerate(authors):
            for b in authors[i + 1 :]:
                if GroundTruthOracle._shares_affiliation(a, b, include_country=False):
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None, "world has no shared-institution pair"
        assert oracle.has_coi(pair[0].author_id, [pair[1].author_id])

    def test_country_level_is_stricter(self, world, oracle):
        count_university = sum(
            oracle.has_coi(a, ["author-0"], include_country=False)
            for a in world.authors
        )
        count_country = sum(
            oracle.has_coi(a, ["author-0"], include_country=True)
            for a in world.authors
        )
        assert count_country >= count_university

"""Tests for the synthetic world generator."""

import pytest

from repro.scholarly.records import SourceName, VenueType
from repro.world.config import WorldConfig
from repro.world.generator import generate_world


class TestDeterminism:
    def test_same_config_same_world(self):
        a = generate_world(WorldConfig(author_count=60, seed=9))
        b = generate_world(WorldConfig(author_count=60, seed=9))
        assert set(a.authors) == set(b.authors)
        assert set(a.publications) == set(b.publications)
        assert [p.title for p in a.publications.values()] == [
            p.title for p in b.publications.values()
        ]

    def test_different_seed_differs(self):
        a = generate_world(WorldConfig(author_count=60, seed=1))
        b = generate_world(WorldConfig(author_count=60, seed=2))
        names_a = sorted(author.name for author in a.authors.values())
        names_b = sorted(author.name for author in b.authors.values())
        assert names_a != names_b


class TestPopulation:
    def test_author_count(self, world):
        assert len(world.authors) == 120

    def test_venue_counts(self, world):
        journals = [v for v in world.venues.values() if v.venue_type == VenueType.JOURNAL]
        conferences = [
            v for v in world.venues.values() if v.venue_type == VenueType.CONFERENCE
        ]
        assert len(journals) == world.config.journals_count
        assert len(conferences) == world.config.conferences_count

    def test_every_author_has_topics_and_affiliations(self, world):
        for author in world.authors.values():
            assert author.topic_expertise
            assert author.affiliations
            assert all(0 < e <= 1 for e in author.topic_expertise.values())

    def test_topics_exist_in_ontology(self, world):
        for author in world.authors.values():
            for topic_id in author.topic_expertise:
                assert topic_id in world.ontology

    def test_hidden_variables_in_range(self, world):
        for author in world.authors.values():
            assert 0 <= author.responsiveness <= 1
            assert 0 <= author.review_quality <= 1
            assert 0 <= author.prominence <= 1

    def test_dblp_covers_everyone(self, world):
        assert all(
            SourceName.DBLP in author.covered_by for author in world.authors.values()
        )

    def test_coverage_is_partial_elsewhere(self, world):
        publons_covered = sum(
            1
            for author in world.authors.values()
            if SourceName.PUBLONS in author.covered_by
        )
        assert 0 < publons_covered < len(world.authors)

    def test_name_collisions_planted(self, world):
        config = world.config
        collision_names = {
            author.name
            for author in world.authors.values()
            if len(world.authors_by_name(author.name)) > 1
        }
        assert len(collision_names) >= config.collision_group_count // 2

    def test_affiliation_periods_are_sane(self, world):
        for author in world.authors.values():
            periods = author.affiliations
            assert periods[0].start_year == author.career_start
            assert periods[-1].end_year is None
            for earlier, later in zip(periods, periods[1:]):
                assert earlier.end_year is not None
                assert earlier.end_year + 1 == later.start_year


class TestPublications:
    def test_authors_exist(self, world):
        for pub in world.publications.values():
            for author_id in pub.author_ids:
                assert author_id in world.authors

    def test_lead_active_in_publication_year(self, world):
        for pub in world.publications.values():
            lead = world.authors[pub.author_ids[0]]
            assert pub.year >= lead.career_start

    def test_keywords_resolve_in_ontology(self, world):
        for pub in world.publications.values():
            for keyword in pub.keywords:
                assert world.ontology.find(keyword) is not None

    def test_team_sizes_bounded(self, world):
        limit = world.config.max_team_size
        for pub in world.publications.values():
            assert 1 <= len(pub.author_ids) <= limit

    def test_citation_counts_nonnegative(self, world):
        assert all(p.citation_count >= 0 for p in world.publications.values())

    def test_growth_shape(self):
        """The Fig. 1 property: later years see (much) more output."""
        world = generate_world(WorldConfig(author_count=300, seed=2))
        stats = world.dblp_records_per_year()
        years = sorted(stats)
        early = sum(sum(stats[y].values()) for y in years[: len(years) // 3])
        late = sum(sum(stats[y].values()) for y in years[-len(years) // 3 :])
        assert late > 2 * early


class TestReviews:
    def test_reviews_reference_journals(self, world):
        for review in world.reviews.values():
            venue = world.venues[review.venue_id]
            assert venue.venue_type == VenueType.JOURNAL

    def test_on_time_consistent_with_days(self, world):
        for review in world.reviews.values():
            assert review.on_time == (review.days_to_complete <= 30)

    def test_reviewers_exist(self, world):
        for review in world.reviews.values():
            assert review.reviewer_id in world.authors

    def test_responsive_authors_review_faster(self, world):
        fast_days, slow_days = [], []
        for author in world.authors.values():
            reviews = world.author_reviews(author.author_id)
            if not reviews:
                continue
            mean_days = sum(r.days_to_complete for r in reviews) / len(reviews)
            if author.responsiveness > 0.8:
                fast_days.append(mean_days)
            elif author.responsiveness < 0.3:
                slow_days.append(mean_days)
        if fast_days and slow_days:
            assert sum(fast_days) / len(fast_days) < sum(slow_days) / len(slow_days)


class TestDerivedStructures:
    def test_publications_by_author_consistent(self, world):
        for author_id, pub_ids in world.publications_by_author.items():
            for pub_id in pub_ids:
                assert author_id in world.publications[pub_id].author_ids

    def test_coauthors_symmetric(self, world):
        for author_id, coauthors in world.coauthors.items():
            for other in coauthors:
                assert author_id in world.coauthors[other]

    def test_no_self_coauthorship(self, world):
        for author_id, coauthors in world.coauthors.items():
            assert author_id not in coauthors

    def test_author_publications_sorted_by_year(self, world):
        for author_id in world.authors:
            pubs = world.author_publications(author_id)
            years = [p.year for p in pubs]
            assert years == sorted(years)


class TestConfigValidation:
    def test_zero_authors_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(author_count=0)

    def test_career_bounds_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(min_career_length=10, max_career_length=5)

    def test_collision_group_size_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(collision_group_count=1, collision_group_size=1)

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(interest_noise=1.5)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"min_career_length": 0},
            {"topics_per_author": 0.5},
            {"max_team_size": 0},
            {"journals_count": 0},
            {"conferences_count": 0},
            {"interest_noise": -0.1},
            {"source_coverage": {SourceName.DBLP: 1.5}},
            {"source_coverage": {SourceName.ORCID: -0.2}},
        ],
        ids=[
            "min_career_length",
            "topics_per_author",
            "max_team_size",
            "journals_count",
            "conferences_count",
            "interest_noise-negative",
            "coverage-above-one",
            "coverage-negative",
        ],
    )
    def test_out_of_range_field_rejected(self, overrides):
        with pytest.raises(ValueError):
            WorldConfig(**overrides)

    def test_coverage_error_names_the_source(self):
        with pytest.raises(ValueError, match="publons"):
            WorldConfig(source_coverage={SourceName.PUBLONS: 2.0})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"interest_noise": 0.0},
            {"interest_noise": 1.0},
            {"collision_group_count": 0, "collision_group_size": 1},
            {"min_career_length": 4, "max_career_length": 4},
            {"source_coverage": {SourceName.GOOGLE_SCHOLAR: 0.0}},
        ],
        ids=["noise-zero", "noise-one", "no-collisions", "fixed-career", "coverage-zero"],
    )
    def test_boundary_values_accepted(self, overrides):
        config = WorldConfig(**overrides)
        for field_name, value in overrides.items():
            assert getattr(config, field_name) == value

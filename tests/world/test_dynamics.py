"""Tests for world evolution and service refresh."""

import pytest

from repro.scholarly.registry import ScholarlyHub
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world


@pytest.fixture()
def small_world():
    # Function-scoped: dynamics mutates the world.
    return generate_world(WorldConfig(author_count=60, seed=17))


@pytest.fixture()
def dynamics(small_world):
    return WorldDynamics(small_world, seed=1)


class TestPublish:
    def test_adds_publications(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        before = len(small_world.publications)
        new_ids = dynamics.publish(author_id, "databases", 2020, count=3)
        assert len(new_ids) == 3
        assert len(small_world.publications) == before + 3

    def test_derived_structures_updated(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        new_ids = dynamics.publish(author_id, "databases", 2020)
        assert new_ids[0] in small_world.publications_by_author[author_id]

    def test_keywords_match_topic(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        pub_id = dynamics.publish(author_id, "rdf", 2020)[0]
        assert "RDF" in small_world.publications[pub_id].keywords

    def test_coauthors_linked(self, small_world, dynamics):
        first, second = sorted(small_world.authors)[:2]
        dynamics.publish(first, "databases", 2020, coauthor_ids=(second,))
        assert second in small_world.coauthors[first]

    def test_unknown_author_rejected(self, dynamics):
        with pytest.raises(KeyError):
            dynamics.publish("author-9999", "databases", 2020)

    def test_venue_is_topical_journal(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        pub_id = dynamics.publish(author_id, "databases", 2020)[0]
        venue = small_world.venues[small_world.publications[pub_id].venue_id]
        assert venue.venue_type.value == "journal"


class TestPivot:
    def test_expertise_updated(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        dynamics.pivot_author(author_id, "rdf", expertise=0.95)
        assert small_world.authors[author_id].topic_expertise["rdf"] == 0.95

    def test_invalid_expertise_rejected(self, dynamics, small_world):
        author_id = sorted(small_world.authors)[0]
        with pytest.raises(ValueError):
            dynamics.pivot_author(author_id, "rdf", expertise=0.0)

    def test_unknown_topic_rejected(self, dynamics, small_world):
        author_id = sorted(small_world.authors)[0]
        with pytest.raises(KeyError):
            dynamics.pivot_author(author_id, "no-such-topic")


class TestReviews:
    def test_adds_reviews(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        venue_id = small_world.journal_venues()[0].venue_id
        before = len(small_world.author_reviews(author_id))
        dynamics.record_reviews(author_id, venue_id, 2020, count=2)
        assert len(small_world.author_reviews(author_id)) == before + 2

    def test_unknown_venue_rejected(self, small_world, dynamics):
        author_id = sorted(small_world.authors)[0]
        with pytest.raises(KeyError):
            dynamics.record_reviews(author_id, "venue-nope", 2020)


class TestAdvanceYear:
    def test_adds_background_publications(self, small_world, dynamics):
        before = len(small_world.publications)
        added = dynamics.advance_year(publication_rate=0.5)
        assert added > 0
        assert len(small_world.publications) == before + added

    def test_new_year_is_after_latest(self, small_world, dynamics):
        latest_before = max(p.year for p in small_world.publications.values())
        dynamics.advance_year(publication_rate=1.0)
        latest_after = max(p.year for p in small_world.publications.values())
        assert latest_after == latest_before + 1


class TestServiceRefresh:
    def test_new_publication_invisible_until_refresh(self, small_world, dynamics):
        hub = ScholarlyHub.deploy(small_world)
        author_id = sorted(small_world.authors)[0]
        pid = hub.dblp_service.pid_of(author_id)
        before = len(hub.dblp.author_page(pid).profile.publication_ids)
        dynamics.publish(author_id, "databases", 2020, count=2)
        # Services still answer from their build-time projection.
        assert len(hub.dblp.author_page(pid).profile.publication_ids) == before
        hub.refresh_services()
        assert len(hub.dblp.author_page(pid).profile.publication_ids) == before + 2

    def test_refresh_preserves_statistics(self, small_world, dynamics):
        hub = ScholarlyHub.deploy(small_world)
        author_id = sorted(small_world.authors)[0]
        hub.dblp.search_author(small_world.authors[author_id].name)
        requests_before = hub.total_requests()
        hub.refresh_services()
        assert hub.total_requests() == requests_before

    def test_pivot_changes_interest_search_after_refresh(self, small_world, dynamics):
        hub = ScholarlyHub.deploy(small_world)
        # Find a scholar-covered author not yet interested in RDF.
        author_id = next(
            a
            for a in sorted(small_world.authors)
            if hub.scholar_service.user_of(a)
            and "rdf" not in small_world.authors[a].topic_expertise
        )
        user = hub.scholar_service.user_of(author_id)
        assert user not in hub.scholar.scholars_by_interest("RDF", limit=500)
        dynamics.pivot_author(author_id, "rdf")
        hub.refresh_services()
        assert user in hub.scholar.scholars_by_interest("RDF", limit=500)

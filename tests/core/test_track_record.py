"""Tests for author track-record extraction."""

import pytest

from repro.core.identity import IdentityVerifier
from repro.core.models import ManuscriptAuthor
from repro.core.track_record import build_track_record
from repro.scholarly.records import SourceName


@pytest.fixture()
def verified(hub, world):
    author = next(
        a
        for a in world.authors.values()
        if len(world.authors_by_name(a.name)) == 1
        and world.publications_by_author.get(a.author_id)
    )
    verifier = IdentityVerifier(hub)
    result = verifier.verify(
        ManuscriptAuthor(author.name, author.affiliations[-1].institution)
    )
    return author, result


class TestTrackRecord:
    def test_publication_counts_match_world(self, hub, world, verified):
        author, verified_author = verified
        record = build_track_record(verified_author, hub)
        assert record.total_publications == len(
            world.publications_by_author[author.author_id]
        )

    def test_per_year_sums_to_total(self, hub, verified):
        __, verified_author = verified
        record = build_track_record(verified_author, hub)
        assert sum(record.publications_per_year.values()) == record.total_publications

    def test_active_span(self, hub, world, verified):
        author, verified_author = verified
        record = build_track_record(verified_author, hub)
        pubs = world.author_publications(author.author_id)
        assert record.first_active_year == min(p.year for p in pubs)
        assert record.last_active_year == max(p.year for p in pubs)
        assert record.active_span_years() >= 1

    def test_coauthor_network_matches_world(self, hub, world, verified):
        author, verified_author = verified
        record = build_track_record(verified_author, hub)
        expected = {
            hub.dblp_service.pid_of(c)
            for c in world.coauthors.get(author.author_id, set())
        }
        assert set(record.coauthor_pids) == expected

    def test_affiliations_from_profile(self, hub, verified):
        __, verified_author = verified
        record = build_track_record(verified_author, hub)
        assert record.affiliations == verified_author.profile.affiliations

    def test_review_count_when_publons_covered(self, hub, world, verified):
        author, verified_author = verified
        record = build_track_record(verified_author, hub)
        if SourceName.PUBLONS in author.covered_by:
            assert record.review_count == len(world.author_reviews(author.author_id))
        else:
            assert record.review_count == 0

    def test_publications_since(self, hub, verified):
        __, verified_author = verified
        record = build_track_record(verified_author, hub)
        assert record.publications_since(0) == record.total_publications
        assert record.publications_since(3000) == 0

    def test_top_venues(self, hub, verified):
        __, verified_author = verified
        record = build_track_record(verified_author, hub)
        top = record.top_venues(2)
        assert len(top) <= 2
        if len(top) == 2:
            assert top[0][1] >= top[1][1]

    def test_empty_career(self, hub):
        from repro.core.models import VerifiedAuthor
        from repro.scholarly.records import MergedProfile

        hollow = VerifiedAuthor(
            submitted=ManuscriptAuthor("Nobody"),
            profile=MergedProfile(canonical_name="Nobody", source_ids=()),
        )
        record = build_track_record(hollow, hub)
        assert record.total_publications == 0
        assert record.active_span_years() == 0
        assert record.first_active_year is None

    def test_requests_the_author_page_once(self, world, verified):
        """Publications and co-authors come from one DBLP page fetch."""
        from repro.scholarly.registry import ScholarlyHub

        author, verified_author = verified
        hub = ScholarlyHub.deploy(world, trace_capacity=1_000)
        record = build_track_record(verified_author, hub)
        assert record.total_publications and record.coauthor_pids
        pid = hub.dblp_service.pid_of(author.author_id)
        page_requests = [t.params for t in hub.http.traces() if t.path == "/author"]
        assert page_requests == [(("pid", pid),)]

"""Integration tests for the six simulated source services + clients.

Each service is exercised through its client over the real simulated
HTTP path, against the shared session world.
"""

import pytest

from repro.scholarly.orcid import _format_orcid
from repro.scholarly.records import SourceName
from repro.scholarly.source import stable_source_id
from repro.text.normalize import canonical_person_name


def covered_author(world, source):
    """First world author with a profile at ``source``."""
    for author_id in sorted(world.authors):
        if source in world.authors[author_id].covered_by:
            return world.authors[author_id]
    raise RuntimeError(f"no author covered by {source}")


def acm_profile_id(author_id):
    """The id the ACM service mints for a world author (it keeps no map)."""
    return stable_source_id(SourceName.ACM_DL, author_id, prefix="acm")


def orcid_id(author_id):
    """The iD the ORCID service mints for a world author (it keeps no map)."""
    return _format_orcid(stable_source_id(SourceName.ORCID, author_id))


def uncovered_author(world, source):
    """First world author WITHOUT a profile at ``source``."""
    for author_id in sorted(world.authors):
        author = world.authors[author_id]
        if source not in author.covered_by:
            # Only meaningful if nobody sharing the name is covered either.
            same_name = world.authors_by_name(author.name)
            if all(source not in a.covered_by for a in same_name):
                return author
    return None


class TestDblp:
    def test_search_finds_author(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        hits = shared_hub.dblp.search_author(author.name)
        assert any(hit["name"] == author.name for hit in hits)

    def test_search_by_alternate_written_form(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        family = author.name.rsplit(" ", 1)[-1]
        given = author.name.rsplit(" ", 1)[0]
        hits = shared_hub.dblp.search_author(f"{family}, {given}")
        assert hits

    def test_homonyms_get_numeric_suffixes(self, shared_hub, world):
        collision = next(
            (
                a
                for a in world.authors.values()
                if len(world.authors_by_name(a.name)) > 1
            ),
            None,
        )
        assert collision is not None
        hits = shared_hub.dblp.search_author(collision.name)
        assert len(hits) > 1
        assert all(hit["pid"].split(" ")[-1].isdigit() for hit in hits)

    def test_author_profile(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        pid = shared_hub.dblp_service.pid_of(author.author_id)
        profile = shared_hub.dblp.author_page(pid).profile
        assert profile.source is SourceName.DBLP
        assert set(profile.publication_ids) == set(
            world.publications_by_author.get(author.author_id, [])
        )

    def test_no_metrics_on_dblp(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        pid = shared_hub.dblp_service.pid_of(author.author_id)
        assert shared_hub.dblp.author_page(pid).profile.metrics is None

    def test_publication_record(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        pid = shared_hub.dblp_service.pid_of(author.author_id)
        publications = shared_hub.dblp.author_page(pid).publications
        assert publications
        for record in publications:
            pub = world.publications[record["id"]]
            assert record["title"] == pub.title
            assert record["year"] == pub.year
            assert record["venue"] == world.venues[pub.venue_id].name

    def test_author_publications_have_venues(self, shared_hub, world):
        author = covered_author(world, SourceName.DBLP)
        pid = shared_hub.dblp_service.pid_of(author.author_id)
        pubs = shared_hub.dblp.author_page(pid).publications
        assert pubs
        assert all("venue" in p and "year" in p for p in pubs)

    def test_coauthors(self, shared_hub, world):
        author_id = next(a for a, c in world.coauthors.items() if c)
        pid = shared_hub.dblp_service.pid_of(author_id)
        coauthor_pids = set(shared_hub.dblp.author_page(pid).coauthor_pids)
        expected = {
            shared_hub.dblp_service.pid_of(c) for c in world.coauthors[author_id]
        }
        assert coauthor_pids == expected

    def test_records_per_year_matches_world(self, shared_hub, world):
        assert shared_hub.dblp.records_per_year() == world.dblp_records_per_year()


class TestGoogleScholar:
    def test_profile_roundtrip(self, shared_hub, world):
        author = covered_author(world, SourceName.GOOGLE_SCHOLAR)
        user = shared_hub.scholar_service.user_of(author.author_id)
        profile = shared_hub.scholar.profile_page(user).profile
        assert profile.name == author.name
        assert profile.metrics is not None

    def test_uncovered_author_absent(self, shared_hub, world):
        author = uncovered_author(world, SourceName.GOOGLE_SCHOLAR)
        if author is None:
            pytest.skip("world covers everyone on scholar")
        assert shared_hub.scholar.search_author(author.name) == []

    def test_citations_inflated_over_truth(self, shared_hub, world):
        author = covered_author(world, SourceName.GOOGLE_SCHOLAR)
        user = shared_hub.scholar_service.user_of(author.author_id)
        profile = shared_hub.scholar.profile_page(user).profile
        truth = sum(p.citation_count for p in world.author_publications(author.author_id))
        assert profile.metrics.citations >= truth

    def test_interest_search_consistent_with_profiles(self, shared_hub, world):
        author = covered_author(world, SourceName.GOOGLE_SCHOLAR)
        user = shared_hub.scholar_service.user_of(author.author_id)
        profile = shared_hub.scholar.profile_page(user).profile
        assert profile.interests
        users = shared_hub.scholar.scholars_by_interest(profile.interests[0])
        assert user in users

    def test_interest_search_unknown_keyword(self, shared_hub):
        assert shared_hub.scholar.scholars_by_interest("warp drive design") == []

    def test_publications_listing(self, shared_hub, world):
        author = covered_author(world, SourceName.GOOGLE_SCHOLAR)
        user = shared_hub.scholar_service.user_of(author.author_id)
        pubs = shared_hub.scholar.profile_page(user).publications
        assert len(pubs) == len(world.publications_by_author.get(author.author_id, []))
        assert all("citations" in p and "keywords" in p for p in pubs)

    def test_missing_profile_none(self, shared_hub):
        assert shared_hub.scholar.profile_page("sch_nonexistent") is None


class TestPublons:
    def test_review_count_matches_world(self, shared_hub, world):
        author = covered_author(world, SourceName.PUBLONS)
        reviewer_id = shared_hub.publons_service.reviewer_id_of(author.author_id)
        summary = shared_hub.publons.reviewer_summary(reviewer_id)
        assert summary["review_count"] == len(world.author_reviews(author.author_id))

    def test_venues_reviewed_sums_to_total(self, shared_hub, world):
        author = covered_author(world, SourceName.PUBLONS)
        reviewer_id = shared_hub.publons_service.reviewer_id_of(author.author_id)
        summary = shared_hub.publons.reviewer_summary(reviewer_id)
        assert (
            sum(v["count"] for v in summary["venues_reviewed"])
            == summary["review_count"]
        )

    def test_summary_omits_raw_reviews(self, shared_hub, world):
        author = covered_author(world, SourceName.PUBLONS)
        reviewer_id = shared_hub.publons_service.reviewer_id_of(author.author_id)
        assert "reviews" not in shared_hub.publons.reviewer_summary(reviewer_id)

    def test_interest_search(self, shared_hub, world):
        author = covered_author(world, SourceName.PUBLONS)
        reviewer_id = shared_hub.publons_service.reviewer_id_of(author.author_id)
        summary = shared_hub.publons.reviewer_summary(reviewer_id)
        if not summary["interests"]:
            pytest.skip("author registered no interests")
        reviewers = shared_hub.publons.reviewers_by_interest(summary["interests"][0])
        assert reviewer_id in reviewers

    def test_missing_reviewer(self, shared_hub):
        assert shared_hub.publons.reviewer_summary("P-nothere") is None


class TestAcm:
    def test_profile_subset_of_truth(self, shared_hub, world):
        author = covered_author(world, SourceName.ACM_DL)
        profile_id = acm_profile_id(author.author_id)
        profile = shared_hub.acm.profile(profile_id)
        truth = set(world.publications_by_author.get(author.author_id, []))
        assert set(profile.publication_ids) <= truth

    def test_citations_deflated_under_scholar(self, shared_hub, world):
        author = covered_author(world, SourceName.ACM_DL)
        if SourceName.GOOGLE_SCHOLAR not in author.covered_by:
            pytest.skip("need scholar coverage for comparison")
        acm = shared_hub.acm.profile(acm_profile_id(author.author_id))
        scholar = shared_hub.scholar.profile_page(
            shared_hub.scholar_service.user_of(author.author_id)
        ).profile
        assert acm.metrics.citations <= scholar.metrics.citations

    def test_search(self, shared_hub, world):
        author = covered_author(world, SourceName.ACM_DL)
        hits = shared_hub.acm.search_author(author.name)
        assert any(
            canonical_person_name(hit["name"]) == canonical_person_name(author.name)
            for hit in hits
        )


class TestOrcid:
    def test_id_format(self, shared_hub, world):
        author = covered_author(world, SourceName.ORCID)
        orcid = orcid_id(author.author_id)
        parts = orcid.split("-")
        assert len(parts) == 4
        assert all(len(p) == 4 and p.isdigit() for p in parts)

    def test_employment_history_is_authoritative(self, shared_hub, world):
        author = covered_author(world, SourceName.ORCID)
        orcid = orcid_id(author.author_id)
        record = shared_hub.orcid.record(orcid)
        assert record.affiliations == author.affiliations

    def test_search(self, shared_hub, world):
        author = covered_author(world, SourceName.ORCID)
        hits = shared_hub.orcid.search(author.name)
        assert any(h["orcid"] == orcid_id(author.author_id) for h in hits)


class TestResearcherId:
    def test_id_format(self, shared_hub, world):
        author = covered_author(world, SourceName.RESEARCHER_ID)
        rid = shared_hub.rid_service.rid_of(author.author_id)
        letter, number, year = rid.split("-")
        assert letter.isalpha() and len(letter) == 1
        assert number.isdigit()
        assert year.isdigit() and len(year) == 4

    def test_lowest_citation_counts(self, shared_hub, world):
        author = covered_author(world, SourceName.RESEARCHER_ID)
        rid_profile = shared_hub.rid.profile(
            shared_hub.rid_service.rid_of(author.author_id)
        )
        truth = sum(p.citation_count for p in world.author_publications(author.author_id))
        assert rid_profile.metrics.citations <= truth

    def test_search_and_profile(self, shared_hub, world):
        author = covered_author(world, SourceName.RESEARCHER_ID)
        hits = shared_hub.rid.search(author.name)
        assert hits
        profile = shared_hub.rid.profile(hits[0]["rid"])
        assert profile is not None

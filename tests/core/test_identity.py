"""Tests for author identity verification (the Fig. 4 machinery)."""

import pytest

from repro.core.errors import AmbiguousIdentityError, IdentityVerificationError
from repro.core.identity import (
    AffiliationEvidenceResolver,
    FirstMatchResolver,
    IdentityResolver,
    IdentityVerifier,
)
from repro.core.models import IdentityMatch, ManuscriptAuthor
from repro.scholarly.records import SourceName


def unique_author(world):
    for author in world.authors.values():
        if len(world.authors_by_name(author.name)) == 1:
            return author
    raise RuntimeError("no unambiguous author")


def colliding_authors(world):
    for author in world.authors.values():
        group = world.authors_by_name(author.name)
        if len(group) > 1:
            return group
    raise RuntimeError("no collision group")


class PickResolver(IdentityResolver):
    """Picks the match at one position, as an editor choosing by hand would."""

    def __init__(self, position):
        self.position = position

    def resolve(self, author, matches):
        return matches[self.position]


def matches_for(names_and_notes):
    return [
        IdentityMatch(
            source=SourceName.DBLP,
            source_author_id=f"pid-{i}",
            name=name,
            evidence=note,
        )
        for i, (name, note) in enumerate(names_and_notes)
    ]


class TestResolvers:
    def test_strict_base_resolver_declines(self):
        resolver = IdentityResolver()
        author = ManuscriptAuthor("Lei Zhou")
        assert resolver.resolve(author, matches_for([("Lei Zhou", "")])) is None

    def test_first_match_resolver(self):
        resolver = FirstMatchResolver()
        matches = matches_for([("Lei Zhou", ""), ("Lei Zhou", "")])
        assert resolver.resolve(ManuscriptAuthor("Lei Zhou"), matches) is matches[0]

    def test_first_match_empty(self):
        assert FirstMatchResolver().resolve(ManuscriptAuthor("X"), []) is None

    def test_affiliation_resolver_picks_matching_note(self):
        resolver = AffiliationEvidenceResolver()
        matches = matches_for(
            [("Lei Zhou", "Tsinghua University"), ("Lei Zhou", "MIT")]
        )
        author = ManuscriptAuthor("Lei Zhou", affiliation="Tsinghua University")
        assert resolver.resolve(author, matches) is matches[0]

    def test_affiliation_resolver_declines_without_evidence(self):
        resolver = AffiliationEvidenceResolver()
        matches = matches_for([("Lei Zhou", "A"), ("Lei Zhou", "B")])
        author = ManuscriptAuthor("Lei Zhou", affiliation="Somewhere Else Entirely")
        assert resolver.resolve(author, matches) is None

    def test_affiliation_resolver_declines_without_affiliation(self):
        resolver = AffiliationEvidenceResolver()
        matches = matches_for([("Lei Zhou", "A")])
        assert resolver.resolve(ManuscriptAuthor("Lei Zhou"), matches) is None

    def test_affiliation_resolver_invalid_threshold(self):
        with pytest.raises(ValueError):
            AffiliationEvidenceResolver(min_overlap=2.0)


class TestVerifier:
    def test_unique_author_verifies(self, hub, world):
        author = unique_author(world)
        affiliation = author.affiliations[-1]
        verifier = IdentityVerifier(hub)
        verified = verifier.verify(
            ManuscriptAuthor(author.name, affiliation.institution)
        )
        assert not verified.ambiguous
        assert verified.profile.source_id(SourceName.DBLP) is not None
        expected_pubs = set(world.publications_by_author.get(author.author_id, []))
        assert expected_pubs <= set(verified.profile.publication_ids)

    def test_unknown_author_raises(self, hub):
        verifier = IdentityVerifier(hub)
        with pytest.raises(IdentityVerificationError):
            verifier.verify(ManuscriptAuthor("Nobody Anywhere"))

    def test_collision_without_evidence_raises(self, hub, world):
        group = colliding_authors(world)
        verifier = IdentityVerifier(hub)
        # No affiliation provided -> the default resolver cannot decide.
        with pytest.raises(AmbiguousIdentityError) as exc_info:
            verifier.verify(ManuscriptAuthor(group[0].name))
        assert exc_info.value.match_count == len(group)

    def test_collision_resolved_by_affiliation(self, hub, world):
        group = colliding_authors(world)
        target = group[0]
        affiliation = target.affiliations[-1]
        # Ensure the two collision members differ in current institution;
        # otherwise evidence genuinely cannot decide.
        others = [a.affiliations[-1].institution for a in group[1:]]
        if affiliation.institution in others:
            pytest.skip("collision group shares an institution")
        verifier = IdentityVerifier(hub)
        verified = verifier.verify(
            ManuscriptAuthor(target.name, affiliation.institution)
        )
        assert verified.ambiguous
        expected_pubs = set(world.publications_by_author.get(target.author_id, []))
        assert expected_pubs == set(
            pid
            for pid in verified.profile.publication_ids
            if pid in expected_pubs
        ) or expected_pubs <= set(verified.profile.publication_ids)

    def test_collision_with_callback_resolver(self, hub, world):
        group = colliding_authors(world)
        verifier = IdentityVerifier(hub, resolver=PickResolver(1))
        verified = verifier.verify(ManuscriptAuthor(group[0].name))
        assert verified.ambiguous
        assert len(verified.candidates_considered) == len(group)

    def test_verify_all_preserves_order(self, hub, world):
        authors = [a for a in world.authors.values() if len(world.authors_by_name(a.name)) == 1][:3]
        verifier = IdentityVerifier(hub)
        submitted = tuple(
            ManuscriptAuthor(a.name, a.affiliations[-1].institution) for a in authors
        )
        verified = verifier.verify_all(submitted)
        assert [v.submitted.name for v in verified] == [a.name for a in authors]

    def test_merged_profile_has_scholar_metrics_when_covered(self, hub, world):
        author = next(
            a
            for a in world.authors.values()
            if len(world.authors_by_name(a.name)) == 1
            and SourceName.GOOGLE_SCHOLAR in a.covered_by
            and world.publications_by_author.get(a.author_id)
        )
        verifier = IdentityVerifier(hub)
        verified = verifier.verify(
            ManuscriptAuthor(author.name, author.affiliations[-1].institution)
        )
        assert verified.profile.source_id(SourceName.GOOGLE_SCHOLAR) is not None
        assert verified.profile.metrics.citations > 0

    def test_orcid_affiliations_linked(self, hub, world):
        author = next(
            (
                a
                for a in world.authors.values()
                if len(world.authors_by_name(a.name)) == 1
                and SourceName.ORCID in a.covered_by
                and world.publications_by_author.get(a.author_id)
            ),
            None,
        )
        if author is None:
            pytest.skip("no suitable author")
        verifier = IdentityVerifier(hub)
        verified = verifier.verify(
            ManuscriptAuthor(author.name, author.affiliations[-1].institution)
        )
        assert verified.profile.affiliations == author.affiliations

    def test_verify_requests_the_author_page_once(self, world):
        """The anchor profile and the dated publication list share one fetch."""
        from repro.scholarly.registry import ScholarlyHub

        hub = ScholarlyHub.deploy(world, trace_capacity=10_000)
        author = unique_author(world)
        result = IdentityVerifier(hub).verify(ManuscriptAuthor(author.name))
        pid = hub.dblp_service.pid_of(author.author_id)
        assert {p["id"] for p in result.dblp_publications} == set(
            world.publications_by_author.get(author.author_id, [])
        )
        page_requests = [t.params for t in hub.http.traces() if t.path == "/author"]
        assert page_requests == [(("pid", pid),)]

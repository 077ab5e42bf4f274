"""Unit tests for cross-source profile linking with a stub source bundle.

The hub-based tests exercise linking against realistic services; these
construct adversarial situations directly — homonyms with disjoint
publication sets, sources with no overlap evidence — to pin down the
linker's decision rules.
"""

import pytest

from repro.core.identity import ProfileLinker
from repro.scholarly.records import SourceName, SourcePage, SourceProfile


class StubScholar:
    def __init__(self, hits, profiles):
        self._hits = hits
        self._profiles = profiles

    def search_author(self, name):
        return self._hits

    def profile_page(self, user):
        profile = self._profiles.get(user)
        return None if profile is None else SourcePage(profile)


class StubEmpty:
    def search_author(self, name):
        return []

    def search(self, name):
        return []

    def search_reviewer(self, name):
        return []


class StubSources:
    """Only Scholar is interesting; the rest return nothing."""

    def __init__(self, scholar):
        self.scholar = scholar
        self.orcid = StubEmpty()
        self.publons = StubEmpty()
        self.acm = StubEmpty()
        self.rid = StubEmpty()
        self.dblp = StubEmpty()


def scholar_profile(user, pubs):
    return SourceProfile(
        source=SourceName.GOOGLE_SCHOLAR,
        source_author_id=user,
        name="Lei Zhou",
        publication_ids=tuple(pubs),
    )


def dblp_anchor(pubs):
    return SourceProfile(
        source=SourceName.DBLP,
        source_author_id="Lei Zhou 0001",
        name="Lei Zhou",
        publication_ids=tuple(pubs),
    )


class TestPublicationOverlapLinking:
    def test_homonym_resolved_by_overlap(self):
        scholar = StubScholar(
            hits=[{"user": "sch_right"}, {"user": "sch_wrong"}],
            profiles={
                "sch_right": scholar_profile("sch_right", ["p1", "p2"]),
                "sch_wrong": scholar_profile("sch_wrong", ["p8", "p9"]),
            },
        )
        linker = ProfileLinker(StubSources(scholar))
        profiles = linker.link_from_dblp(dblp_anchor(["p1", "p2", "p3"]))
        linked_users = [
            p.source_author_id
            for p in profiles
            if p.source is SourceName.GOOGLE_SCHOLAR
        ]
        assert linked_users == ["sch_right"]

    def test_best_overlap_wins(self):
        scholar = StubScholar(
            hits=[{"user": "sch_partial"}, {"user": "sch_full"}],
            profiles={
                "sch_partial": scholar_profile("sch_partial", ["p1"]),
                "sch_full": scholar_profile("sch_full", ["p1", "p2", "p3"]),
            },
        )
        linker = ProfileLinker(StubSources(scholar))
        profiles = linker.link_from_dblp(dblp_anchor(["p1", "p2", "p3"]))
        linked = [
            p.source_author_id
            for p in profiles
            if p.source is SourceName.GOOGLE_SCHOLAR
        ]
        assert linked == ["sch_full"]

    def test_multiple_hits_without_overlap_rejected(self):
        scholar = StubScholar(
            hits=[{"user": "a"}, {"user": "b"}],
            profiles={
                "a": scholar_profile("a", ["x1"]),
                "b": scholar_profile("b", ["x2"]),
            },
        )
        linker = ProfileLinker(StubSources(scholar))
        profiles = linker.link_from_dblp(dblp_anchor(["p1"]))
        assert all(p.source is not SourceName.GOOGLE_SCHOLAR for p in profiles)

    def test_single_hit_accepted_when_anchor_has_no_pubs(self):
        scholar = StubScholar(
            hits=[{"user": "only"}],
            profiles={"only": scholar_profile("only", ["x1"])},
        )
        linker = ProfileLinker(StubSources(scholar))
        profiles = linker.link_from_dblp(dblp_anchor([]))
        linked = [
            p.source_author_id
            for p in profiles
            if p.source is SourceName.GOOGLE_SCHOLAR
        ]
        assert linked == ["only"]

    def test_single_hit_without_overlap_rejected_when_anchor_has_pubs(self):
        # The anchor HAS publications; a same-name profile sharing none
        # of them is evidence of a different person, not weak evidence
        # of the same one.
        scholar = StubScholar(
            hits=[{"user": "only"}],
            profiles={"only": scholar_profile("only", ["x1"])},
        )
        linker = ProfileLinker(StubSources(scholar))
        profiles = linker.link_from_dblp(dblp_anchor(["p1", "p2"]))
        assert all(p.source is not SourceName.GOOGLE_SCHOLAR for p in profiles)

    def test_no_hits_anywhere_returns_anchor_only(self):
        linker = ProfileLinker(StubSources(StubScholar([], {})))
        profiles = linker.link_from_dblp(dblp_anchor(["p1"]))
        assert len(profiles) == 1
        assert profiles[0].source is SourceName.DBLP

    def test_hit_cap_respected(self):
        # Only the first five hits may be fetched and compared.
        fetched = []

        class CountingScholar(StubScholar):
            def profile_page(self, user):
                fetched.append(user)
                return SourcePage(scholar_profile(user, ["zz"]))

        scholar = CountingScholar(
            hits=[{"user": f"u{i}"} for i in range(20)], profiles={}
        )
        linker = ProfileLinker(StubSources(scholar))
        linker.link_from_dblp(dblp_anchor(["p1"]))
        assert len(fetched) <= 5

"""Tests for candidate retrieval and profile assembly."""

from collections import Counter

import pytest

from repro.core.config import PipelineConfig
from repro.core.extraction import CandidateExtractor
from repro.ontology.expansion import ExpandedKeyword
from repro.scholarly.records import SourceName


def expansions_for(world, hub, count=2):
    """Expansion list built from interests that really exist on Scholar."""
    keywords = []
    for author in world.authors.values():
        user = hub.scholar_service.user_of(author.author_id)
        if user is None:
            continue
        profile = hub.scholar.profile_page(user).profile
        keywords.extend(profile.interests)
        if len(keywords) >= count:
            break
    return [
        ExpandedKeyword(keyword=k, topic_id="", score=1.0, seed=k, depth=0)
        for k in dict.fromkeys(keywords[:count])
    ]


class TestRetrieval:
    def test_retrieval_finds_registered_scholars(self, hub, world):
        expansions = expansions_for(world, hub)
        extractor = CandidateExtractor(hub)
        scholar_matches, publons_matches = extractor.retrieve_candidate_ids(expansions)
        assert scholar_matches, "no scholars retrieved"
        for matched in scholar_matches.values():
            assert all(0 < s <= 1 for s in matched.values())

    def test_retrieval_keeps_best_score_per_keyword(self, hub, world):
        keyword = expansions_for(world, hub, count=1)[0].keyword
        duplicated = [
            ExpandedKeyword(keyword=keyword, topic_id="", score=0.6, seed=keyword, depth=1),
            ExpandedKeyword(keyword=keyword, topic_id="", score=0.9, seed=keyword, depth=1),
        ]
        extractor = CandidateExtractor(hub)
        scholar_matches, __ = extractor.retrieve_candidate_ids(duplicated)
        for matched in scholar_matches.values():
            assert max(matched.values()) == pytest.approx(0.9)

    def test_normalize_identical_keywords_query_once(self, world):
        """Surface variants of one keyword cost one query pair, not many.

        The services normalize the query term themselves, so "RDF" and
        "rdf" can only ever return the same ids — issuing both would
        just double the request bill.
        """
        from repro.scholarly.registry import ScholarlyHub

        hub_probe = ScholarlyHub.deploy(world)
        keyword = expansions_for(world, hub_probe, count=1)[0].keyword

        def variants(kw):
            return [
                ExpandedKeyword(keyword=kw, topic_id="", score=0.9, seed=kw, depth=0),
                ExpandedKeyword(
                    keyword=kw.upper(), topic_id="", score=0.6, seed=kw, depth=1
                ),
                ExpandedKeyword(
                    keyword=f"  {kw.title()} ", topic_id="", score=0.7, seed=kw, depth=1
                ),
            ]

        hub_single = ScholarlyHub.deploy(world)
        single = CandidateExtractor(hub_single).retrieve_candidate_ids(
            [variants(keyword)[0]]
        )
        hub_multi = ScholarlyHub.deploy(world)
        multi = CandidateExtractor(hub_multi).retrieve_candidate_ids(
            variants(keyword)
        )
        assert hub_multi.total_requests() == hub_single.total_requests()
        # The merge still keeps the best expansion score of the group.
        assert set(multi[0]) == set(single[0])
        for matched in multi[0].values():
            assert max(matched.values()) == pytest.approx(0.9)


class TestOneFetchPerPage:
    """Each page is fetched once per use: every field comes from one response."""

    @staticmethod
    def traced_hub(world):
        from repro.scholarly.registry import ScholarlyHub

        return ScholarlyHub.deploy(world, trace_capacity=100_000)

    def test_cold_recommend_serves_no_candidate_page_twice(self, world, manuscript):
        from repro.core.pipeline import Minaret

        hub = self.traced_hub(world)
        Minaret(hub).recommend(manuscript)
        (author,) = world.authors_by_name(manuscript.authors[0].name)
        own_pages = {
            (hub.dblp.host, "/author", (("pid", hub.dblp_service.pid_of(author.author_id)),)),
            (
                hub.scholar.host,
                "/citations/profile",
                (("user", hub.scholar_service.user_of(author.author_id)),),
            ),
        }
        served = Counter(
            (trace.host, trace.path, trace.params)
            for trace in hub.http.traces()
            if trace.status == 200 and trace.path in ("/author", "/citations/profile")
        )
        twice = {key: count for key, count in served.items() if count > 1}
        # The submitting author's own pages are read by identity
        # verification and once more when extraction retrieves the author
        # as a candidate; no other scholar's page is read twice.
        assert set(twice) <= own_pages
        assert all(count == 2 for count in twice.values())

    def test_scholar_assembly_requests_profile_page_once(self, world):
        hub = self.traced_hub(world)
        author = next(
            a
            for a in world.authors.values()
            if SourceName.GOOGLE_SCHOLAR in a.covered_by
            and world.publications_by_author.get(a.author_id)
        )
        user = hub.scholar_service.user_of(author.author_id)
        candidate = CandidateExtractor(hub)._assemble_from_scholar(user)
        assert candidate.scholar_publications
        profile_requests = [t for t in hub.http.traces() if t.path == "/citations/profile"]
        assert [t.params for t in profile_requests] == [(("user", user),)]

    def test_homonym_link_requests_each_author_page_once(self, world):
        hub = self.traced_hub(world)
        group = next(
            group
            for group in (world.authors_by_name(a.name) for a in world.authors.values())
            if len(group) > 1
            and all(world.publications_by_author.get(a.author_id) for a in group)
        )
        target = group[-1]
        known_pubs = set(world.publications_by_author[target.author_id])
        profile, publications = CandidateExtractor(hub)._link_dblp(target.name, known_pubs)
        assert profile.source_author_id == hub.dblp_service.pid_of(target.author_id)
        assert {p["id"] for p in publications} == known_pubs
        page_requests = Counter(t.params for t in hub.http.traces() if t.path == "/author")
        assert page_requests == Counter(
            (("pid", hub.dblp_service.pid_of(a.author_id)),) for a in group
        )


class TestExtraction:
    def test_candidates_capped(self, hub, world):
        expansions = expansions_for(world, hub, count=3)
        config = PipelineConfig(max_candidates=5)
        extractor = CandidateExtractor(hub, config)
        candidates = extractor.extract_candidates(expansions)
        assert len(candidates) <= 5

    def test_candidates_have_merged_profiles(self, hub, world):
        expansions = expansions_for(world, hub)
        extractor = CandidateExtractor(hub, PipelineConfig(max_candidates=8))
        candidates = extractor.extract_candidates(expansions)
        assert candidates
        for candidate in candidates:
            assert candidate.name
            assert candidate.profile.canonical_name
            assert candidate.matched_keywords
            # Scholar-anchored candidates must carry scholar ids.
            assert candidate.profile.source_ids

    def test_no_duplicate_names(self, hub, world):
        expansions = expansions_for(world, hub, count=4)
        extractor = CandidateExtractor(hub, PipelineConfig(max_candidates=30))
        candidates = extractor.extract_candidates(expansions)
        names = [c.name for c in candidates]
        assert len(names) == len(set(names))

    def test_dblp_linked_for_scholar_candidates(self, hub, world):
        expansions = expansions_for(world, hub)
        extractor = CandidateExtractor(hub, PipelineConfig(max_candidates=8))
        candidates = extractor.extract_candidates(expansions)
        linked = [
            c
            for c in candidates
            if c.profile.source_id(SourceName.DBLP) is not None
        ]
        # DBLP covers everyone, so essentially all candidates must link.
        assert len(linked) == len(candidates)

    def test_publons_fields_applied_when_covered(self, hub, world):
        expansions = expansions_for(world, hub, count=4)
        extractor = CandidateExtractor(hub, PipelineConfig(max_candidates=20))
        candidates = extractor.extract_candidates(expansions)
        with_reviews = [c for c in candidates if c.review_count > 0]
        assert with_reviews, "no candidate carries review history"
        for candidate in with_reviews:
            assert candidate.venues_reviewed

    def test_empty_expansion_gives_no_candidates(self, hub):
        extractor = CandidateExtractor(hub)
        assert extractor.extract_candidates([]) == []

    def test_unknown_keyword_gives_no_candidates(self, hub):
        extractor = CandidateExtractor(hub)
        expansions = [
            ExpandedKeyword(
                keyword="antigravity pottery", topic_id="", score=1.0,
                seed="antigravity pottery", depth=0,
            )
        ]
        assert extractor.extract_candidates(expansions) == []

    def test_ranking_of_pool_by_aggregate_match(self, hub, world):
        expansions = expansions_for(world, hub, count=3)
        config = PipelineConfig(max_candidates=3)
        extractor = CandidateExtractor(hub, config)
        small_pool = extractor.extract_candidates(expansions)
        config_large = PipelineConfig(max_candidates=100)
        large_pool = CandidateExtractor(hub, config_large).extract_candidates(
            expansions
        )
        # The capped pool must be a prefix-quality subset: every kept
        # candidate's aggregate match >= the best dropped one's.
        if len(large_pool) > len(small_pool):
            kept_scores = [sum(c.matched_keywords.values()) for c in small_pool]
            small_ids = {c.candidate_id for c in small_pool}
            dropped = [
                c for c in large_pool if c.candidate_id not in small_ids
            ]
            dropped_scholar = [
                sum(c.matched_keywords.values())
                for c in dropped
                if c.candidate_id.startswith("sch_")
            ]
            if dropped_scholar and kept_scores:
                assert min(kept_scores) >= max(dropped_scholar) - 1e-9

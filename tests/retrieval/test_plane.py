"""Unit tests for the warm-path retrieval plane."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.config import PipelineConfig
from repro.core.extraction import CandidateExtractor
from repro.ontology.expansion import ExpandedKeyword
from repro.retrieval import RetrievalPlane
from repro.web.clock import SimulatedClock
from repro.web.crawler import CrawlError
from repro.web.http import HttpRequest, ServiceUnavailableError


@pytest.fixture()
def clock():
    return SimulatedClock()


@pytest.fixture()
def plane(clock):
    return RetrievalPlane(clock)


class TestFetch:
    def test_miss_then_hit(self, plane):
        calls = []
        loader = lambda: calls.append(1) or "value"  # noqa: E731
        assert plane.fetch("layer", "k", loader) == "value"
        assert plane.fetch("layer", "k", loader) == "value"
        assert calls == [1]
        assert plane.hits == 1
        assert plane.misses == 1

    def test_cached_none_is_a_hit(self, plane):
        """``None`` results (profile not found) are cacheable outcomes."""
        calls = []
        loader = lambda: calls.append(1)  # noqa: E731
        assert plane.fetch("layer", "k", loader) is None
        assert plane.fetch("layer", "k", loader) is None
        assert calls == [1]
        assert plane.hits == 1

    def test_layers_do_not_collide(self, plane):
        plane.fetch("a", "k", lambda: 1)
        assert plane.fetch("b", "k", lambda: 2) == 2

    def test_loader_failure_not_cached(self, plane):
        with pytest.raises(RuntimeError):
            plane.fetch("layer", "k", lambda: (_ for _ in ()).throw(RuntimeError()))
        assert plane.fetch("layer", "k", lambda: "recovered") == "recovered"
        assert len(plane.store) == 1

    def test_ttl_expires_against_virtual_clock(self, clock):
        plane = RetrievalPlane(clock, ttl=10.0)
        plane.fetch("layer", "k", lambda: "old")
        clock.advance(11.0)
        assert plane.fetch("layer", "k", lambda: "new") == "new"

    def test_cached_serves_and_counts_hits_only(self, plane):
        plane.fetch("layer", "a", lambda: "A")
        plane.fetch("layer", "none", lambda: None)
        assert plane.cached("layer", ["b", "a", "none"]) == {1: "A", 2: None}
        assert (plane.hits, plane.misses) == (2, 2)
        store = plane.store.stats()
        assert (store["hits"], store["misses"]) == (2, 2)

    def test_rejected_value_goes_to_its_loader_only(self, plane):
        calls = []

        def loader():
            calls.append(1)
            return len(calls)

        reject = lambda value: False  # noqa: E731
        assert plane.fetch("layer", "k", loader, keep=reject) == 1
        assert plane.fetch("layer", "k", loader, keep=reject) == 2
        assert len(plane.store) == 0
        assert (plane.hits, plane.misses, plane.coalesced) == (0, 2, 0)

    def test_kept_value_is_stored(self, plane):
        keep = lambda value: value > 0  # noqa: E731
        assert plane.fetch("layer", "k", lambda: 1, keep=keep) == 1
        assert plane.fetch("layer", "k", lambda: 2, keep=keep) == 1

    def test_every_caller_loads_its_own_rejected_value(self, plane):
        """Concurrent callers match one-at-a-time callers: 8 loads."""
        workers = 8
        barrier = threading.Barrier(workers)
        loads = []
        lock = threading.Lock()

        def loader():
            time.sleep(0.01)  # keep the flight open for the others
            with lock:
                loads.append(threading.get_ident())
                return len(loads)

        def call():
            barrier.wait()
            return plane.fetch("layer", "k", loader, keep=lambda value: False)

        threads = [threading.Thread(target=call) for __ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(loads) == workers
        assert (plane.misses, plane.coalesced) == (workers, 0)
        assert len(plane.store) == 0

    def test_hit_rate(self, plane):
        assert plane.hit_rate() == 0.0
        plane.fetch("layer", "k", lambda: 1)
        plane.fetch("layer", "k", lambda: 1)
        assert plane.hit_rate() == 0.5


class TestEpoch:
    def test_bump_invalidates_store(self, plane):
        plane.fetch("layer", "k", lambda: "stale")
        assert plane.bump_epoch() == 1
        assert plane.fetch("layer", "k", lambda: "fresh") == "fresh"


class _InterestQuery:
    """One source's interest query, recording each keyword it is asked.

    The first ``down`` queries fail as a source down through every
    retry; each query takes ``delay`` wall seconds.
    """

    def __init__(self, ids):
        self.ids = ids
        self.keywords = []
        self.down = 0
        self.delay = 0.0

    def __call__(self, keyword, limit):
        self.keywords.append(keyword)
        time.sleep(self.delay)
        if self.down:
            self.down -= 1
            request = HttpRequest.create("scholar.google.com", "/citations")
            raise CrawlError(
                request.host, request.path, 4, ServiceUnavailableError(request)
            )
        return self.ids[:limit]


class TestInterestRankings:
    """Interest rankings are the ``*_interest`` layers of the plane's store."""

    LIMIT = PipelineConfig().per_keyword_retrieval_limit

    @pytest.fixture()
    def sources(self):
        return SimpleNamespace(
            scholar=SimpleNamespace(scholars_by_interest=_InterestQuery(["u1", "u2"])),
            publons=SimpleNamespace(reviewers_by_interest=_InterestQuery(["r1"])),
        )

    @staticmethod
    def retrieve(plane, sources, *keywords, config=None):
        expanded = [
            ExpandedKeyword(keyword=k, topic_id="", score=1.0, seed=k, depth=0)
            for k in keywords
        ]
        extractor = CandidateExtractor(sources, config=config, plane=plane)
        return extractor.retrieve_candidate_ids(expanded)

    @staticmethod
    def asked(sources):
        """The keywords each source was queried for: ``(scholar, publons)``."""
        return (
            sources.scholar.scholars_by_interest.keywords,
            sources.publons.reviewers_by_interest.keywords,
        )

    def test_repeat_query_is_served_warm(self, plane, sources):
        first = self.retrieve(plane, sources, "rdf")
        assert self.retrieve(plane, sources, "rdf") == first
        assert self.asked(sources) == (["rdf"], ["rdf"])
        layers = plane.stats()["layers"]
        for layer in ("scholar_interest", "publons_interest"):
            assert layers[layer] == {"hit": 1, "miss": 1}
        store = plane.store.stats()
        assert (store["hits"], store["misses"]) == (2, 2)

    def test_two_spellings_share_an_entry(self, plane, sources):
        self.retrieve(plane, sources, "Query Optimization")
        self.retrieve(plane, sources, "query  optimization")
        asked = ["Query Optimization"]
        assert self.asked(sources) == (asked, asked)
        assert len(plane.store) == 2

    def test_sources_are_independent(self, plane, sources):
        plane.fetch("scholar_interest", ("rdf", self.LIMIT), lambda: ["u9"])
        users, reviewers = self.retrieve(plane, sources, "rdf")
        assert (list(users), list(reviewers)) == (["u9"], ["r1"])
        assert self.asked(sources) == ([], ["rdf"])

    def test_epoch_bump_loads_again(self, plane, sources):
        self.retrieve(plane, sources, "rdf")
        plane.bump_epoch()
        self.retrieve(plane, sources, "rdf")
        assert self.asked(sources) == (["rdf", "rdf"], ["rdf", "rdf"])

    def test_lapsed_ttl_loads_again(self, clock, sources):
        plane = RetrievalPlane(clock, ttl=10.0)
        self.retrieve(plane, sources, "rdf")
        clock.advance(11.0)
        self.retrieve(plane, sources, "rdf")
        assert self.asked(sources) == (["rdf", "rdf"], ["rdf", "rdf"])

    def test_rankings_count_against_capacity(self, clock, sources):
        plane = RetrievalPlane(clock, capacity=2)
        self.retrieve(plane, sources, "rdf")
        self.retrieve(plane, sources, *(f"topic {i}" for i in range(100)))
        assert len(plane.store) == 2
        self.retrieve(plane, sources, "rdf")
        assert self.asked(sources)[0].count("rdf") == 2

    def test_mixed_wave_counts_each_lookup_once(self, plane, sources):
        """The wave read counts the warm keyword, ``fetch`` the cold one,
        and the store sees each lookup the plane counts."""
        self.retrieve(plane, sources, "rdf")
        self.retrieve(plane, sources, "rdf", "lod")
        assert self.asked(sources) == (["rdf", "lod"], ["rdf", "lod"])
        layers = plane.stats()["layers"]
        for layer in ("scholar_interest", "publons_interest"):
            assert layers[layer] == {"hit": 1, "miss": 2}
        store = plane.store.stats()
        assert (store["hits"], store["misses"]) == (plane.hits, plane.misses)

    def test_each_limit_is_its_own_entry(self, plane, sources):
        """A ranking fetched at one limit never answers another."""
        narrow = PipelineConfig(per_keyword_retrieval_limit=1)
        users, __ = self.retrieve(plane, sources, "rdf", config=narrow)
        assert list(users) == ["u1"]
        users, __ = self.retrieve(plane, sources, "rdf")
        assert list(users) == ["u1", "u2"]
        users, __ = self.retrieve(plane, sources, "rdf", config=narrow)
        assert list(users) == ["u1"]
        assert self.asked(sources) == (["rdf", "rdf"], ["rdf", "rdf"])
        assert len(plane.store) == 4

    def test_concurrent_misses_load_once(self, plane, sources):
        """Single-flight coalesces one ranking's concurrent misses."""
        workers = 8
        barrier = threading.Barrier(workers)
        for query in (
            sources.scholar.scholars_by_interest,
            sources.publons.reviewers_by_interest,
        ):
            query.delay = 0.01  # keep the flight open for the others

        def call():
            barrier.wait()
            self.retrieve(plane, sources, "rdf")

        threads = [threading.Thread(target=call) for __ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert self.asked(sources) == (["rdf"], ["rdf"])
        for counts in plane.stats()["layers"].values():
            assert counts["miss"] == 1
            assert sum(counts.values()) == workers

    def test_failed_load_is_not_stored(self, plane, sources):
        """A source down through every retry costs that keyword's
        candidates once; the next query asks the source again."""
        sources.scholar.scholars_by_interest.down = 1
        users, reviewers = self.retrieve(plane, sources, "rdf")
        assert (users, list(reviewers)) == ({}, ["r1"])
        users, __ = self.retrieve(plane, sources, "rdf")
        assert list(users) == ["u1", "u2"]
        assert self.asked(sources) == (["rdf", "rdf"], ["rdf"])


class TestStats:
    def test_snapshot_shape(self, plane):
        plane.fetch("scholar_profile", "u1", lambda: "p")
        plane.fetch("scholar_profile", "u1", lambda: "p")
        plane.fetch("publons_interest", ("rdf", 5), lambda: ["r"])
        stats = plane.stats()
        assert stats["plane"] == "retrieval"
        assert stats["epoch"] == 0
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["store_entries"] == 2
        assert stats["layers"] == {
            "publons_interest": {"miss": 1},
            "scholar_profile": {"hit": 1, "miss": 1},
        }

    def test_stats_is_json_serialisable(self, plane):
        import json

        plane.fetch("layer", ("tuple", "key"), lambda: 1)
        json.dumps(plane.stats())


class TestHubAttachment:
    def test_refresh_services_bumps_attached_plane(self, hub):
        plane = RetrievalPlane.for_sources(hub)
        plane.fetch("layer", "k", lambda: "stale")
        hub.refresh_services()
        assert plane.epoch == 1
        assert len(plane.store) == 0

    def test_for_sources_uses_hub_clock(self, hub):
        plane = RetrievalPlane.for_sources(hub, ttl=5.0)
        plane.fetch("layer", "k", lambda: "old")
        hub.clock.advance(6.0)
        assert plane.fetch("layer", "k", lambda: "new") == "new"

    def test_attach_is_idempotent(self, hub):
        plane = RetrievalPlane.for_sources(hub)
        hub.attach_retrieval_plane(plane)
        assert hub.planes.count(plane) == 1

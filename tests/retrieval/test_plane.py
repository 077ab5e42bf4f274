"""Unit tests for the warm-path retrieval plane."""

import pytest

from repro.retrieval import RetrievalPlane
from repro.web.clock import SimulatedClock


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

    def test_bump_invalidates_interest_mirror(self, plane):
        plane.interest_ids("scholar", "rdf", 10, lambda: ["a", "b"])
        plane.bump_epoch()
        assert plane.interest_ids("scholar", "rdf", 10, lambda: ["c"]) == ["c"]

    def test_clear_keeps_epoch(self, plane):
        plane.fetch("layer", "k", lambda: 1)
        plane.clear()
        assert plane.epoch == 0
        assert len(plane.store) == 0


class TestInterestIndex:
    def test_second_query_resolves_locally(self, plane):
        calls = []
        loader = lambda: calls.append(1) or ["a", "b", "c"]  # noqa: E731
        assert plane.interest_ids("scholar", "rdf", 10, loader) == ["a", "b", "c"]
        assert plane.interest_ids("scholar", "rdf", 10, loader) == ["a", "b", "c"]
        assert calls == [1]

    def test_normalized_keywords_share_postings(self, plane):
        plane.interest_ids("scholar", "Query Optimization", 10, lambda: ["a"])
        calls = []
        ids = plane.interest_ids(
            "scholar", "query optimization", 10, lambda: calls.append(1) or []
        )
        assert ids == ["a"]
        assert calls == []

    def test_narrower_limit_is_a_prefix(self, plane):
        plane.interest_ids("scholar", "rdf", 10, lambda: ["a", "b", "c"])
        assert plane.interest_ids("scholar", "rdf", 2, lambda: ["x"]) == ["a", "b"]

    def test_wider_limit_refetches_when_truncated(self, plane):
        """A full page at limit N may hide a tail; limit > N must refetch."""
        plane.interest_ids("scholar", "rdf", 2, lambda: ["a", "b"])
        wider = plane.interest_ids("scholar", "rdf", 4, lambda: ["a", "b", "c"])
        assert wider == ["a", "b", "c"]

    def test_wider_limit_local_when_list_was_exhaustive(self, plane):
        """Fewer ids than the limit means the source had no more."""
        calls = []
        plane.interest_ids("scholar", "rdf", 10, lambda: ["a", "b"])
        ids = plane.interest_ids(
            "scholar", "rdf", 50, lambda: calls.append(1) or []
        )
        assert ids == ["a", "b"]
        assert calls == []

    def test_cached_interest_ids_counts_hits_only(self, plane):
        plane.interest_ids("scholar", "RDF", 10, lambda: ["a", "b"])
        hits = plane.cached_interest_ids("scholar", ["sparql", "rdf"], 1)
        assert hits == {1: ["a"]}
        assert plane.stats()["layers"]["scholar_interest"] == {"hit": 1, "miss": 1}

    def test_sources_are_independent(self, plane):
        plane.interest_ids("scholar", "rdf", 10, lambda: ["a"])
        assert plane.interest_ids("publons", "rdf", 10, lambda: ["r1"]) == ["r1"]

class TestStats:
    def test_snapshot_shape(self, plane):
        plane.fetch("scholar_profile", "u1", lambda: "p")
        plane.fetch("scholar_profile", "u1", lambda: "p")
        plane.interest_ids("publons", "rdf", 5, lambda: ["r"])
        stats = plane.stats()
        assert stats["plane"] == "retrieval"
        assert stats["epoch"] == 0
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["store_entries"] == 1
        assert stats["index_terms"] == {"publons": 1, "scholar": 0}
        assert stats["layers"]["scholar_profile"] == {"hit": 1, "miss": 1}

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

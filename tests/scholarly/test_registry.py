"""Tests for the hub deployment and source behaviour wiring."""

import pytest

from repro.scholarly.records import SourceName
from repro.scholarly.registry import (
    DEFAULT_BEHAVIOUR,
    ScholarlyHub,
    SourceBehaviour,
)
from repro.web.crawler import RetryPolicy


class TestDeploy:
    def test_all_hosts_registered(self, hub):
        hosts = set(hub.http.hosts())
        assert hosts == {
            "dblp.org",
            "scholar.google.com",
            "publons.com",
            "dl.acm.org",
            "orcid.org",
            "researcherid.com",
        }

    def test_clients_dict_complete(self, hub):
        clients = hub.clients()
        assert set(clients) == set(SourceName)

    def test_accounting_starts_at_zero(self, hub):
        assert hub.total_requests() == 0
        assert hub.total_latency() == 0.0

    def test_requests_accumulate(self, hub, world):
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        assert hub.total_requests() == 1
        assert hub.total_latency() > 0.0

    def test_default_cache_is_on_the_fly(self, hub, world):
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        hub.dblp.search_author(author.name)
        assert hub.http.stats["dblp.org"].requests == 2

    def test_positive_ttl_enables_caching(self, world):
        hub = ScholarlyHub.deploy(world, cache_ttl=3600.0)
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        hub.dblp.search_author(author.name)
        assert hub.http.stats["dblp.org"].requests == 1
        assert hub.crawler.cache_hits == 1


class TestBehaviourModels:
    def test_default_behaviour_covers_all_sources(self):
        assert set(DEFAULT_BEHAVIOUR) == set(SourceName)

    def test_scholar_is_slowest(self):
        scholar = DEFAULT_BEHAVIOUR[SourceName.GOOGLE_SCHOLAR]
        dblp = DEFAULT_BEHAVIOUR[SourceName.DBLP]
        assert scholar.latency_base > dblp.latency_base

    def test_custom_behaviour_applied(self, world):
        behaviour = {
            source: SourceBehaviour(latency_base=0.0, latency_jitter=0.0)
            for source in SourceName
        }
        hub = ScholarlyHub.deploy(world, behaviour=behaviour)
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        assert hub.total_latency() == 0.0

    def test_faults_are_retried_transparently(self, world):
        behaviour = dict(DEFAULT_BEHAVIOUR)
        behaviour[SourceName.DBLP] = SourceBehaviour(
            latency_base=0.001, latency_jitter=0.0, failure_probability=0.5
        )
        hub = ScholarlyHub.deploy(
            world,
            behaviour=behaviour,
            retry=RetryPolicy(max_attempts=10, base_backoff=0.001),
        )
        # Several distinct queries; each must eventually succeed despite
        # 50% faults.  (Fault draws are keyed by request content, so
        # repeating one identical request would re-draw one fate — the
        # spread of authors guarantees some first attempts fail.)
        import itertools

        for author in itertools.islice(world.authors.values(), 8):
            assert hub.dblp.search_author(author.name) is not None
        assert hub.http.stats["dblp.org"].faults > 0


class TestRoutes:
    def test_services_serve_only_what_minaret_requests(self, world):
        """Each simulated route is one the pipeline or Figure 1 reads.

        Three cold recommendations that consult every source for a
        target venue, plus the Figure 1 statistics call, request every
        path each service routes, and nothing else.
        """
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import Minaret
        from tests.conftest import make_manuscript

        capacity = 1 << 16
        hub = ScholarlyHub.deploy(world, trace_capacity=capacity)
        minaret = Minaret(hub, config=PipelineConfig(use_all_sources=True))
        authors = [
            author
            for author in world.authors.values()
            if len(world.authors_by_name(author.name)) == 1
        ][:3]
        for author in authors:
            manuscript = make_manuscript(world, author)
            assert manuscript.target_venue
            minaret.recommend(manuscript)
        hub.dblp.records_per_year()
        traces = hub.http.traces()
        assert len(traces) < capacity
        requested: dict[str, set[str]] = {}
        for trace in traces:
            requested.setdefault(trace.host, set()).add(trace.path)
        services = (
            hub.dblp_service,
            hub.scholar_service,
            hub.publons_service,
            hub.acm_service,
            hub.orcid_service,
            hub.rid_service,
        )
        assert {s.host: set(s.paths()) for s in services} == {
            s.host: requested.get(s.host, set()) for s in services
        }

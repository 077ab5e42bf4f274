"""End-to-end warm-path guarantees: determinism, savings, freshness."""

import dataclasses
import sys
import threading

import pytest

from repro.api.handlers import MinaretApi
from repro.assignment import recommend_batch
from repro.core.config import PipelineConfig
from repro.core.errors import IdentityVerificationError
from repro.core.identity import IdentityVerifier
from repro.core.models import ManuscriptAuthor
from repro.core.pipeline import Minaret
from repro.obs import Observability, RequestLedger, use
from repro.ontology import expansion
from repro.retrieval import RetrievalPlane
from repro.scholarly.orcid import ORCID_HOST
from repro.scholarly.records import SourceName
from repro.scholarly.registry import ScholarlyHub
from repro.web.faults import FaultPolicy
from repro.world.conference import ConferenceConfig, generate_conference
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world
from tests.api.test_handlers import manuscript_payload
from tests.conftest import make_manuscript
from tests.core.test_identity import PickResolver


def signature(result):
    """The bit-exact ranking: (candidate, score) in order."""
    return [(s.candidate.candidate_id, s.total_score) for s in result.ranked]


class TestDeterminism:
    @pytest.fixture(scope="class")
    def cold_signature(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        return signature(Minaret(hub).recommend(manuscript))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_warm_first_run_matches_cold_sequential(
        self, world, cold_signature, workers
    ):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(
            hub, config=PipelineConfig(warm_cache=True, workers=workers)
        )
        assert signature(minaret.recommend(manuscript)) == cold_signature

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_warm_repeat_run_matches_cold_sequential(
        self, world, cold_signature, workers
    ):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(
            hub, config=PipelineConfig(warm_cache=True, workers=workers)
        )
        minaret.recommend(manuscript)
        assert signature(minaret.recommend(manuscript)) == cold_signature


class TestRequestSavings:
    def test_repeat_run_is_cheap(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        minaret.recommend(manuscript)
        first = hub.total_requests()
        minaret.recommend(manuscript)
        second = hub.total_requests() - first
        assert second * 5 <= first

    def test_plane_counts_warm_traffic(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        minaret.recommend(manuscript)
        assert minaret.plane.hits == 0
        minaret.recommend(manuscript)
        assert minaret.plane.hits > 0
        stats = minaret.plane.stats()
        assert stats["store_entries"] > 0
        assert stats["layers"]["scholar_interest"]["hit"] > 0

    def test_bill_counts_every_plane_lookup(self, world):
        """A bill's ``caches.retrieval`` row counts interest lookups too."""
        manuscript = _manuscript(world)
        minaret = Minaret(
            ScholarlyHub.deploy(world), config=PipelineConfig(warm_cache=True)
        )
        with RequestLedger("cold") as cold:
            minaret.recommend(manuscript)
        with RequestLedger("warm") as warm:
            minaret.recommend(manuscript)
        plane = minaret.plane
        rows = [bill.to_dict()["caches"]["retrieval"] for bill in (cold, warm)]
        assert sum(row["hits"] for row in rows) == plane.hits
        assert sum(row["misses"] for row in rows) == plane.misses + plane.coalesced
        assert plane.stats()["layers"]["scholar_interest"]["hit"] > 0

    def test_cold_pipeline_has_no_plane(self, world):
        hub = ScholarlyHub.deploy(world)
        assert Minaret(hub).plane is None

    def test_explicit_plane_is_shared_between_pipelines(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        plane = RetrievalPlane.for_sources(hub)
        Minaret(hub, plane=plane).recommend(manuscript)
        first = hub.total_requests()
        Minaret(hub, plane=plane).recommend(manuscript)
        assert (hub.total_requests() - first) * 5 <= first


class TestConcurrentBatch:
    """A planted conference through ``recommend_batch`` on a warm plane."""

    @pytest.fixture(scope="class")
    def entries(self, world):
        return generate_conference(
            world, ConferenceConfig(paper_count=24, seed=3)
        ).entries()

    def test_each_key_loads_once_at_any_worker_count(self, world, entries):
        """8 workers issue exactly the 1-worker run's loads and requests.

        A caller whose store lookup missed just before another flight
        published must not lead a second load.  The short switch
        interval makes that interleaving likely on every run.
        """
        baseline = _warm_batch(world, entries, workers=1)
        outcome = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: outcome.update(
                    run=_warm_batch(world, entries, workers=8)
                ),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive(), "8-worker batch did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert outcome["run"] == baseline

    @pytest.mark.parametrize("workers", [1, 8])
    def test_every_store_lookup_counted_once(self, world, entries, workers):
        """Batched wave reads and per-key fetches share one count."""
        obs = Observability()
        with use(obs):
            minaret = Minaret(
                ScholarlyHub.deploy(world), config=PipelineConfig(warm_cache=True)
            )
            for __ in range(2):  # a cold batch, then a warm one
                recommend_batch(minaret, entries, workers=workers)
        plane = minaret.plane
        lookups = sum(
            count
            for outcomes in plane.stats()["layers"].values()
            for count in outcomes.values()
        )
        store = plane.store.stats()
        assert store["hits"] + store["misses"] == lookups
        assert obs.metrics.counter_total("retrieval_hits_total") == plane.hits


class TestFreshness:
    @pytest.fixture()
    def evolving(self):
        """A private small world this class may mutate freely."""
        world = generate_world(WorldConfig(author_count=60, seed=7))
        hub = ScholarlyHub.deploy(world)
        return world, hub

    def test_world_advance_invalidates_plane(self, evolving):
        world, hub = evolving
        manuscript = _manuscript(world)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        minaret.recommend(manuscript)
        assert len(minaret.plane.store) > 0

        dynamics = WorldDynamics(world, seed=9)
        dynamics.advance_year()
        hub.refresh_services()

        assert minaret.plane.epoch == 1
        assert len(minaret.plane.store) == 0

    def test_post_advance_warm_run_matches_fresh_cold_run(self, evolving):
        world, hub = evolving
        manuscript = _manuscript(world)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        minaret.recommend(manuscript)

        dynamics = WorldDynamics(world, seed=9)
        target = sorted(world.authors)[0]
        dynamics.publish(target, "databases", 2020, count=2)
        hub.refresh_services()

        warm = signature(minaret.recommend(manuscript))
        cold_hub = ScholarlyHub.deploy(world)
        cold = signature(Minaret(cold_hub).recommend(manuscript))
        assert warm == cold


class TestWarmContract:
    """Warm mode verifies each author and resolves each venue once per
    epoch; what a resolver decided or a lost source degraded is
    verified again on every run."""

    def test_repeat_run_issues_no_request_and_ranks_as_cold(self, world):
        manuscript = _manuscript(world)
        cold = signature(Minaret(ScholarlyHub.deploy(world)).recommend(manuscript))
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        first = minaret.recommend(manuscript)
        before = hub.total_requests()
        second = minaret.recommend(manuscript)
        assert hub.total_requests() == before
        assert signature(second) == signature(first) == cold
        assert second.manuscript.target_venue == first.manuscript.target_venue
        assert second.verified_authors[0] is first.verified_authors[0]
        layers = minaret.plane.stats()["layers"]
        assert layers["author_identity"] == {"hit": 1, "miss": 1}
        assert layers["target_venue"] == {"hit": 1, "miss": 1}

    def test_cold_repeat_verifies_live(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        minaret = Minaret(hub)
        first = minaret.recommend(manuscript)
        issued = hub.total_requests()
        second = minaret.recommend(manuscript)
        assert hub.total_requests() - issued == issued
        for phase in ("verify_authors", "crawl_outlet"):
            assert second.phase(phase).requests == first.phase(phase).requests > 0

    def test_write_makes_the_next_run_verify_again(self):
        world = generate_world(WorldConfig(author_count=60, seed=7))
        hub = ScholarlyHub.deploy(world)
        author = next(
            a for a in world.authors.values() if len(world.authors_by_name(a.name)) == 1
        )
        manuscript = make_manuscript(world, author)
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        before = minaret.recommend(manuscript)
        assert minaret.recommend(manuscript).phase("verify_authors").requests == 0

        WorldDynamics(world, seed=9).publish(
            author.author_id, author.primary_topic(), 2020, count=2
        )
        hub.refresh_services()

        after = minaret.recommend(manuscript)
        assert after.phase("verify_authors").requests > 0
        assert after.phase("crawl_outlet").requests > 0
        assert len(after.verified_authors[0].dblp_publications) == (
            len(before.verified_authors[0].dblp_publications) + 2
        )
        cold = Minaret(ScholarlyHub.deploy(world)).recommend(manuscript)
        assert signature(after) == signature(cold)
        assert after.verified_authors == cold.verified_authors

    def test_resolved_homonym_is_verified_on_every_run(self, world):
        target = _resolvable_homonym(world)
        manuscript = make_manuscript(world, target)
        cold = Minaret(ScholarlyHub.deploy(world)).recommend(manuscript)
        minaret = Minaret(
            ScholarlyHub.deploy(world), config=PipelineConfig(warm_cache=True)
        )
        for __ in range(3):
            warm = minaret.recommend(manuscript)
            assert warm.verified_authors[0].ambiguous
            assert warm.phase("verify_authors").requests == cold.phase(
                "verify_authors"
            ).requests
            assert signature(warm) == signature(cold)
        assert "hit" not in minaret.plane.stats()["layers"]["author_identity"]

    def test_each_resolver_decides_its_own_homonym(self, world):
        """A stored pick would hand one caller's decision to another."""
        group = next(
            world.authors_by_name(a.name)
            for a in world.authors.values()
            if len(world.authors_by_name(a.name)) > 1
        )
        author = ManuscriptAuthor(group[0].name)
        hub = ScholarlyHub.deploy(world)
        plane = RetrievalPlane.for_sources(hub)
        picks = [
            IdentityVerifier(hub, resolver=PickResolver(i), plane=plane).verify(author)
            for i in (0, 1, 0)
        ]
        chosen = [v.profile.source_id(SourceName.DBLP) for v in picks]
        assert chosen[0] == chosen[2] != chosen[1]

    def test_lost_orcid_link_is_verified_on_every_run(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        hub.http.set_fault_policy(ORCID_HOST, FaultPolicy(failure_probability=1.0))
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        runs = [minaret.recommend(manuscript) for __ in range(2)]
        for run in runs:
            profile = run.verified_authors[0].profile
            assert profile.source_id(SourceName.ORCID) is None
            assert run.phase("verify_authors").requests > 0
        assert runs[1].phase("verify_authors").requests == runs[0].phase(
            "verify_authors"
        ).requests
        # The venue lookup does not touch ORCID and is stored.
        assert runs[1].phase("crawl_outlet").requests == 0

    def test_unknown_author_is_looked_up_on_every_run(self, world):
        hub = ScholarlyHub.deploy(world)
        verifier = IdentityVerifier(hub, plane=RetrievalPlane.for_sources(hub))
        for attempt in range(1, 3):
            with pytest.raises(IdentityVerificationError):
                verifier.verify(ManuscriptAuthor("Nobody Anywhere"))
            assert hub.total_requests() == attempt

    def test_use_all_sources_is_part_of_the_key(self, world):
        manuscript = _manuscript(world)
        hub = ScholarlyHub.deploy(world)
        plane = RetrievalPlane.for_sources(hub)
        narrow = Minaret(hub, config=PipelineConfig(warm_cache=True), plane=plane)
        wide = Minaret(
            hub,
            config=PipelineConfig(warm_cache=True, use_all_sources=True),
            plane=plane,
        )
        narrow.recommend(manuscript)
        result = wide.recommend(manuscript)
        assert result.phase("verify_authors").requests > 0
        assert result.verified_authors[0].profile.source_id(SourceName.ACM_DL)

    def test_unknown_venue_is_stored_as_typed(self, world):
        typed = dataclasses.replace(_manuscript(world), target_venue="Journal of Nowhere")
        minaret = Minaret(
            ScholarlyHub.deploy(world), config=PipelineConfig(warm_cache=True)
        )
        for requests in (1, 0):
            result = minaret.recommend(typed)
            assert result.manuscript.target_venue == "Journal of Nowhere"
            assert result.phase("crawl_outlet").requests == requests


class TestSharedExpander:
    """One expander per API deployment, bounded and keyed by config."""

    def test_requests_share_the_deployment_expander(self, world):
        api = MinaretApi(ScholarlyHub.deploy(world))
        body = {
            "manuscript": manuscript_payload(_manuscript(world)),
            "config": {"warm_cache": True},
        }
        assert api.handle("POST", "/api/v1/recommend", body).status == 200
        hits = api.expander.memo_hits
        assert api.handle("POST", "/api/v1/recommend", body).status == 200
        assert api.expander.memo_hits == hits + len(body["manuscript"]["keywords"])

    def test_memo_stays_within_its_bound(self, world):
        api = MinaretApi(ScholarlyHub.deploy(world))
        keywords = [f"keyword {i}" for i in range(expansion.MEMO_CAPACITY + 25)]
        response = api.handle("POST", "/api/v1/expand", {"keywords": keywords})
        assert response.status == 200
        assert len(api.expander._memo) == expansion.MEMO_CAPACITY

    def test_two_expansion_configs_do_not_share_results(self, world):
        api = MinaretApi(ScholarlyHub.deploy(world))

        def labels(max_depth):
            body = {"keywords": ["RDF"], "max_depth": max_depth}
            response = api.handle("POST", "/api/v1/expand", body)
            return {row["keyword"] for row in response.body["expansions"]}

        deep = labels(2)
        shallow = labels(0)
        assert shallow < deep
        assert labels(2) == deep
        assert labels(0) == shallow


def _resolvable_homonym(world):
    """A colliding author whose current institution tells them apart."""
    for author in world.authors.values():
        group = world.authors_by_name(author.name)
        if len(group) < 2:
            continue
        others = {a.affiliations[-1].institution for a in group if a is not author}
        if author.affiliations[-1].institution not in others and len(
            author.topic_expertise
        ) >= 2:
            return author
    raise RuntimeError("world has no resolvable homonym")


def _warm_batch(world, entries, workers):
    """Rankings, requests and plane misses of one batch on a fresh plane."""
    hub = ScholarlyHub.deploy(world)
    minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
    results = recommend_batch(minaret, entries, workers=workers)
    rankings = [(paper_id, signature(result)) for paper_id, result in results]
    return rankings, hub.total_requests(), minaret.plane.stats()["misses"]


def _manuscript(world):
    for author in world.authors.values():
        if len(world.authors_by_name(author.name)) == 1:
            return make_manuscript(world, author)
    raise RuntimeError("world has no unambiguous author")

"""End-to-end warm-path guarantees: determinism, savings, freshness."""

import sys
import threading

import pytest

from repro.assignment import recommend_batch
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.obs import Observability, use
from repro.scholarly.registry import ScholarlyHub
from repro.world.conference import ConferenceConfig, generate_conference
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world
from tests.conftest import make_manuscript


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
        assert stats["index_terms"]["scholar"] > 0

    def test_cold_pipeline_has_no_plane(self, world):
        hub = ScholarlyHub.deploy(world)
        assert Minaret(hub).plane is None

    def test_explicit_plane_is_shared_between_pipelines(self, world):
        from repro.retrieval import RetrievalPlane

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
            for layer, outcomes in plane.stats()["layers"].items()
            if not layer.endswith("_interest")
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

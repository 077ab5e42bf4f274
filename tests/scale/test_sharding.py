"""Parity tests: sharded index/store vs their monolithic originals."""

import random

import pytest

from repro.concurrency import create_executor
from repro.scale import ShardedFeatureStore, ShardedInvertedIndex, shard_of
from repro.scale.plane import ScalePlane
from repro.scoring.features import FeatureStore, ScoringContext
from repro.storage.inverted import InvertedIndex
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

_TERMS = ["rdf", "sparql", "graphs", "nlp", "provenance", "indexing"]


def _corpus(doc_count: int = 120, seed: int = 17) -> dict[str, dict[str, float]]:
    rng = random.Random(seed)
    docs = {}
    for i in range(doc_count):
        terms = rng.sample(_TERMS, rng.randint(1, 4))
        docs[f"doc-{i}"] = {t: round(rng.uniform(0.1, 3.0), 3) for t in terms}
    return docs


def _pair(n_shards: int, executor=None):
    mono, sharded = InvertedIndex(), ShardedInvertedIndex(n_shards, executor=executor)
    for doc_id, weights in _corpus().items():
        mono.add(doc_id, weights)
        sharded.add(doc_id, weights)
    return mono, sharded


class TestShardOf:
    def test_range_and_stability(self):
        for n in (1, 4, 16):
            assert all(0 <= shard_of(f"author-{i}", n) < n for i in range(200))
        assert shard_of("author-7", 16) == shard_of("author-7", 16)

    def test_not_process_randomized(self):
        # blake2b, not builtin hash: the value is a cross-process constant.
        assert shard_of("author-0", 16) == 1

    def test_single_shard_short_circuit(self):
        assert shard_of("anything", 1) == 0

    def test_spreads_documents(self):
        counts = [0] * 8
        for i in range(800):
            counts[shard_of(f"author-{i}", 8)] += 1
        assert min(counts) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedInvertedIndex(0)


class TestSearchParity:
    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_search_identical(self, n_shards):
        mono, sharded = _pair(n_shards)
        queries = [
            ["rdf"],
            ["rdf", "sparql", "nlp"],
            ["missing-term"],
            _TERMS,
            ["rdf", "rdf", "sparql"],  # duplicate query terms
        ]
        for terms in queries:
            assert sharded.search(terms) == mono.search(terms)
            assert sharded.search(terms, use_idf=False) == mono.search(
                terms, use_idf=False
            )
            weights = {t: 0.5 + 0.1 * i for i, t in enumerate(terms)}
            assert sharded.search(terms, query_weights=weights) == mono.search(
                terms, query_weights=weights
            )

    @pytest.mark.parametrize("n_shards", [4, 16])
    def test_limit_identical(self, n_shards):
        mono, sharded = _pair(n_shards)
        for limit in (0, 1, 5, 1000):
            assert sharded.search(_TERMS, limit=limit) == mono.search(
                _TERMS, limit=limit
            )

    @pytest.mark.parametrize("workers", [2, 8])
    def test_threaded_fanout_identical(self, workers):
        executor = create_executor(workers)
        mono, sharded = _pair(8, executor=executor)
        assert sharded.search(_TERMS) == mono.search(_TERMS)
        assert sharded.search_any(_TERMS) == mono.search_any(_TERMS)

    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_boolean_parity(self, n_shards):
        mono, sharded = _pair(n_shards)
        assert sharded.search_any(["rdf", "nlp"]) == mono.search_any(["rdf", "nlp"])
        assert sharded.search_any([]) == mono.search_any([])
        # AND across shards intersects per shard then unions: each doc
        # lives in exactly one shard, so the result set is identical.
        assert sharded.search_all(["rdf", "sparql"]) == mono.search_all(
            ["rdf", "sparql"]
        )
        assert sharded.search_all(["missing"]) == mono.search_all(["missing"])


class TestWriteParity:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_replace_term(self, n_shards):
        mono, sharded = _pair(n_shards)
        new = {f"doc-{i}": 1.5 for i in range(0, 40, 3)}
        mono.replace_term("rdf", new)
        sharded.replace_term("rdf", new)
        assert sharded.postings("rdf") == mono.postings("rdf")
        assert sharded.search(_TERMS) == mono.search(_TERMS)
        mono.replace_term("rdf", {})
        sharded.replace_term("rdf", {})
        assert sharded.postings("rdf") == [] == mono.postings("rdf")
        assert sharded.document_frequency("rdf") == 0

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_add_term_and_remove(self, n_shards):
        mono, sharded = _pair(n_shards)
        extra = {f"doc-{i}": 0.7 for i in range(50, 70)}
        mono.add_term("fresh", extra)
        sharded.add_term("fresh", extra)
        assert sharded.postings("fresh") == mono.postings("fresh")
        for doc_id in ("doc-3", "doc-55", "doc-999"):
            mono.remove(doc_id)
            sharded.remove(doc_id)
        assert len(sharded) == len(mono)
        assert sharded.search(_TERMS + ["fresh"]) == mono.search(_TERMS + ["fresh"])
        assert "doc-3" not in sharded
        assert "doc-4" in sharded
        assert sharded.terms_of("doc-4") == mono.terms_of("doc-4")

    def test_stats_aggregate_matches_monolithic(self):
        mono, sharded = _pair(4)
        mono_stats, sharded_stats = mono.stats(), sharded.stats()
        for key in ("documents", "postings", "terms"):
            assert sharded_stats[key] == mono_stats[key]
        assert len(sharded_stats["per_shard"]) == 4
        assert sum(s["documents"] for s in sharded_stats["per_shard"]) == len(mono)


class TestEpochs:
    def test_writes_advance_owning_shard(self):
        index = ShardedInvertedIndex(4)
        before = index.epoch
        index.add("doc-1", {"rdf": 1.0})
        assert index.epoch > before

    def test_bump_epoch_aligns_all_shards(self):
        index = ShardedInvertedIndex(4)
        index.add("doc-1", {"rdf": 1.0})
        index.add("doc-2", {"rdf": 1.0})
        target = index.bump_epoch()
        assert target == index.epoch
        assert all(shard.epoch == target for shard in index._shards)
        assert index.bump_epoch() == target + 1


class TestShardedFeatureStore:
    @pytest.fixture(scope="class")
    def candidates(self):
        world = StreamingWorld(
            WorldConfig(author_count=64, seed=3), block_size=16
        )
        plane = ScalePlane(world, n_shards=1)
        return [plane.candidate_of(f"author-{i}") for i in range(40)]

    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_batch_parity_in_input_order(self, candidates, n_shards, workers):
        ctx = ScoringContext(current_year=2024, half_life_years=3.0)
        mono = FeatureStore()
        sharded = ShardedFeatureStore(
            n_shards,
            executor=create_executor(workers),
        )
        assert sharded.features_for_many(candidates, ctx) == (
            mono.features_for_many(candidates, ctx)
        )

    def test_single_lookup_routes_consistently(self, candidates):
        ctx = ScoringContext(current_year=2024, half_life_years=3.0)
        sharded = ShardedFeatureStore(4)
        first = sharded.features_for(candidates[0], ctx)
        assert sharded.features_for(candidates[0], ctx) == first
        assert sharded.built == 1
        assert sharded.reused == 1

    def test_epoch_provider_invalidates_every_shard(self, candidates):
        ctx = ScoringContext(current_year=2024, half_life_years=3.0)
        epoch = [0]
        sharded = ShardedFeatureStore(4, epoch_provider=lambda: epoch[0])
        sharded.features_for_many(candidates, ctx)
        built = sharded.built
        epoch[0] += 1
        sharded.features_for_many(candidates, ctx)
        assert sharded.built == 2 * built  # every entry rebuilt

    def test_capacity_below_shard_count_floors_at_one_slot_each(
        self, candidates
    ):
        # Degenerate regime from the class docstring: capacity=1 over 16
        # shards must not build any zero-capacity store — each shard
        # keeps one slot, bounding the cache at max(capacity, n_shards).
        ctx = ScoringContext(current_year=2024, half_life_years=3.0)
        sharded = ShardedFeatureStore(16, capacity=1)
        mono = FeatureStore()
        assert sharded.features_for_many(candidates, ctx) == (
            mono.features_for_many(candidates, ctx)
        )
        stats = sharded.stats()
        assert stats["entries"] <= 16
        assert all(s["entries"] <= 1 for s in stats["per_shard"])
        repeat = sharded.features_for_many(candidates, ctx)
        assert repeat == mono.features_for_many(candidates, ctx)
        assert sharded.reused > 0  # the single slot per shard does cache

    def test_stats_and_capacity_split(self, candidates):
        ctx = ScoringContext(current_year=2024, half_life_years=3.0)
        sharded = ShardedFeatureStore(4, capacity=8)
        sharded.features_for_many(candidates, ctx)
        stats = sharded.stats()
        assert stats["shards"] == 4
        assert stats["entries"] <= 8
        assert len(stats["per_shard"]) == 4
        with pytest.raises(ValueError):
            ShardedFeatureStore(0)
        with pytest.raises(ValueError):
            ShardedFeatureStore(4, capacity=0)

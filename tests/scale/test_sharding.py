"""Parity tests: the sharded feature store vs one monolithic store, and
the stable hash that routes candidates to its shards."""

import pytest

from repro.concurrency import create_executor
from repro.scale import ShardedFeatureStore
from repro.scale.features import shard_of
from repro.scale.plane import ScalePlane
from repro.scoring.features import FeatureStore, ScoringContext
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld


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
            ShardedFeatureStore(n_shards=0)


class TestShardedFeatureStore:
    @pytest.fixture(scope="class")
    def candidates(self):
        world = StreamingWorld(
            WorldConfig(author_count=64, seed=3), block_size=16
        )
        plane = ScalePlane(world)
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

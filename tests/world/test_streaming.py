"""Tests for the streaming world generator (repro.world.streaming)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.config import WorldConfig
from repro.world.generator import _POISSON_KNUTH_MAX, _poisson
from repro.world.streaming import StreamingWorld, child_rng

_SMALL = WorldConfig(author_count=96, seed=11)


@pytest.fixture(scope="module")
def streaming_world():
    return StreamingWorld(_SMALL, block_size=16, cache_blocks=4)


@pytest.fixture(scope="module")
def materialized(streaming_world):
    return streaming_world.materialize()


class TestChildRng:
    def test_deterministic(self):
        assert (
            child_rng(42, "author", 7).random()
            == child_rng(42, "author", 7).random()
        )

    def test_independent_streams(self):
        assert (
            child_rng(42, "author", 7).random()
            != child_rng(42, "author", 8).random()
        )
        assert (
            child_rng(42, "author", 7).random()
            != child_rng(43, "author", 7).random()
        )

    def test_kind_separates_streams(self):
        assert (
            child_rng(42, "pubs", 7).random()
            != child_rng(42, "reviews", 7).random()
        )


class TestAccessOrderIndependence:
    def test_reverse_order_identical(self):
        forward = StreamingWorld(_SMALL, block_size=16)
        backward = StreamingWorld(_SMALL, block_size=16)
        ids = list(forward.author_ids())
        forward_scholars = {i: forward.scholar(i) for i in ids}
        backward_scholars = {i: backward.scholar(i) for i in reversed(ids)}
        assert forward_scholars == backward_scholars

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(list(range(0, 96, 7))))
    def test_any_access_order_matches_materialized(
        self, streaming_world, materialized, order
    ):
        """The hypothesis property from the issue: whatever order
        scholars are realised in — interleaved with whatever eviction
        pattern the LRU produces — every entity is bit-identical to the
        eagerly materialised world."""
        fresh = StreamingWorld(_SMALL, block_size=16, cache_blocks=2)
        for index in order:
            author_id = f"author-{index}"
            scholar = fresh.scholar(author_id)
            assert scholar.author == materialized.authors[author_id]
            assert [p.pub_id for p in scholar.publications] == (
                materialized.publications_by_author.get(author_id, [])
            )
            assert list(scholar.publications) == [
                materialized.publications[p]
                for p in materialized.publications_by_author.get(author_id, [])
            ]
            assert [r.review_id for r in scholar.reviews] == (
                materialized.reviews_by_reviewer.get(author_id, [])
            )
            assert set(scholar.coauthor_ids) == materialized.coauthors.get(
                author_id, set()
            )


class TestMaterializeEquivalence:
    def test_every_scholar_matches(self, streaming_world, materialized):
        fresh = StreamingWorld(_SMALL, block_size=16)
        for author_id in materialized.authors:
            scholar = fresh.scholar(author_id)
            assert scholar.author == materialized.authors[author_id]

    def test_materialize_is_deterministic(self, materialized):
        again = StreamingWorld(_SMALL, block_size=16).materialize()
        assert again.authors == materialized.authors
        assert again.publications == materialized.publications
        assert again.reviews == materialized.reviews

    def test_venues_identical_across_instances(self, streaming_world):
        other = StreamingWorld(_SMALL, block_size=32)
        assert other.venues == streaming_world.venues

    def test_block_size_changes_content_family(self):
        """Block size is part of the world family (it bounds the
        co-author neighbourhood), not a tuning knob of one world."""
        a = StreamingWorld(_SMALL, block_size=16).scholar("author-3")
        b = StreamingWorld(_SMALL, block_size=48).scholar("author-3")
        assert a.author == b.author  # profiles are block-independent


class TestLru:
    def test_eviction_does_not_change_content(self):
        tight = StreamingWorld(_SMALL, block_size=16, cache_blocks=1)
        first = tight.scholar("author-0")
        tight.scholar("author-90")  # evicts author-0's block
        assert tight.stats()["blocks_evicted"] >= 1
        assert tight.scholar("author-0") == first

    def test_cache_bound_holds(self):
        tight = StreamingWorld(_SMALL, block_size=16, cache_blocks=2)
        for author_id in tight.author_ids():
            tight.scholar(author_id)
        assert tight.stats()["blocks_cached"] <= 2

    def test_warm_hits_do_not_rerealize(self, streaming_world):
        before = streaming_world.stats()["blocks_realized"]
        streaming_world.scholar("author-1")
        streaming_world.scholar("author-2")  # same block of 16
        after = streaming_world.stats()["blocks_realized"]
        assert after <= before + 1

    def test_every_block_call_is_a_hit_or_a_realisation(self):
        world = StreamingWorld(_SMALL, block_size=16, cache_blocks=2)
        order = [0, 1, 0, 2, 3, 0, 5, 5, 4, 1, 1]
        for block_id in order:
            world.block(block_id)
        stats = world.stats()
        assert stats["blocks_hit"] + stats["blocks_realized"] == len(order)
        assert stats["blocks_hit"] == 3  # 0 (2nd), 5 (2nd), 1 (last)
        assert stats["realize_seconds"] > 0.0


class TestPopulationShape:
    def test_collision_groups_planted(self, streaming_world):
        config = streaming_world.config
        group_size = config.collision_group_size
        for group in range(config.collision_group_count):
            names = {
                streaming_world.profile(group * group_size + offset).name
                for offset in range(group_size)
            }
            assert len(names) == 1

    def test_profiles_valid(self, streaming_world):
        for index in range(0, 96, 11):
            author = streaming_world.profile(index)
            assert author.topic_expertise
            assert author.affiliations
            assert 0.0 <= author.prominence <= 1.0
            assert (
                streaming_world.config.min_career_length
                <= streaming_world.config.current_year - author.career_start
                <= streaming_world.config.max_career_length
            )

    def test_interest_weights_are_ontology_labels(self, streaming_world):
        labels = {
            t.label for t in streaming_world.ontology.topics()
        }
        weights = streaming_world.interest_weights(5)
        assert weights
        assert set(weights) <= labels

    def test_team_density_matches_eager_family(self, materialized):
        team_sizes = [
            len(p.author_ids) for p in materialized.publications.values()
        ]
        assert 2.0 < sum(team_sizes) / len(team_sizes) < 5.0

    def test_author_ids_and_index_roundtrip(self, streaming_world):
        ids = list(streaming_world.author_ids())
        assert len(ids) == 96
        assert [streaming_world.author_index(i) for i in ids] == list(range(96))
        with pytest.raises(KeyError):
            streaming_world.author_index("author-96")
        with pytest.raises(KeyError):
            streaming_world.author_index("venue-3")
        # No spelling here is one the world issues, though ``int`` reads
        # most of them as 0, 7 or 10: each raises before any block is
        # realised.
        realised = streaming_world.stats()["blocks_realized"]
        for spelling in (
            "author-007", "author-+7", "author- 7", "author-7 ", "author-\u0667",
            "author-1_0", "7", "author--0", 7, None,
        ):
            with pytest.raises(KeyError):
                streaming_world.author_index(spelling)
            with pytest.raises(KeyError):
                streaming_world.scholar(spelling)
        assert streaming_world.stats()["blocks_realized"] == realised

    def test_interned_ids_share_objects(self):
        world = StreamingWorld(_SMALL, block_size=16, cache_blocks=1)
        first = world.scholar("author-10").author.author_id
        world.scholar("author-90")  # evict and re-realise
        second = world.scholar("author-10").author.author_id
        assert first is second


class TestValidation:
    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            StreamingWorld(_SMALL, block_size=0)

    def test_bad_cache_blocks(self):
        with pytest.raises(ValueError):
            StreamingWorld(_SMALL, cache_blocks=0)


class TestPoisson:
    """Satellite: the large-mean Poisson path (PTRS)."""

    def test_small_means_unchanged(self):
        """Draw-for-draw identical to Knuth's method at existing means —
        the guard must not move a single stock-config draw."""

        def knuth_reference(rng, mean):
            import math

            threshold = math.exp(-mean)
            count = 0
            product = rng.random()
            while product > threshold:
                count += 1
                product *= rng.random()
            return count

        for mean in (0.3, 1.2, 7.5, 45.0, _POISSON_KNUTH_MAX):
            a, b = random.Random(99), random.Random(99)
            assert [_poisson(a, mean) for __ in range(200)] == [
                knuth_reference(b, mean) for __ in range(200)
            ]

    def test_zero_and_negative_mean(self):
        rng = random.Random(1)
        assert _poisson(rng, 0.0) == 0
        assert _poisson(rng, -3.0) == 0

    def test_large_mean_terminates_and_centers(self):
        """exp(-800) underflows to 0.0 — the old loop would only stop
        when the running product underflowed too, after O(mean) draws.
        The PTRS path must terminate fast and still sample Poisson."""
        rng = random.Random(7)
        draws = [_poisson(rng, 800.0) for __ in range(400)]
        mean = sum(draws) / len(draws)
        assert 750 < mean < 850
        variance = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert 500 < variance < 1200  # Poisson: variance ~ mean

    def test_huge_mean_no_underflow(self):
        rng = random.Random(3)
        draws = [_poisson(rng, 1e6) for __ in range(50)]
        assert all(900_000 < d < 1_100_000 for d in draws)

    def test_large_mean_deterministic(self):
        assert [_poisson(random.Random(5), 500.0) for __ in range(20)] == [
            _poisson(random.Random(5), 500.0) for __ in range(20)
        ]

"""End-to-end scale-plane tests: the sharded query path against its
brute-force reference, at every worker/shard combination the issue names."""

import pytest

from repro.concurrency import create_executor
from repro.scale.bench import popular_labels
from repro.scale.plane import ScalePlane, lpt_makespan, modeled_speedup
from repro.scale.sharding import shard_of
from repro.scoring.features import ScoringContext, build_candidate_features
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

_CONFIG = WorldConfig(author_count=200, seed=9)


@pytest.fixture(scope="module")
def scale_world():
    return StreamingWorld(_CONFIG, block_size=32)


@pytest.fixture(scope="module")
def keywords(scale_world):
    labels = popular_labels(scale_world, sample=200, count=3)
    return {labels[0]: 1.0, labels[1]: 0.8, labels[2]: 0.5}


@pytest.fixture(scope="module")
def submitters():
    return ["author-0", "author-1"]


@pytest.fixture(scope="module")
def reference(scale_world, keywords, submitters):
    plane = ScalePlane(scale_world, n_shards=1)
    plane.ingest()
    return plane.brute_force_topk(keywords, submitters, k=10)


def _plane(scale_world, n_shards, workers=1):
    executor = create_executor(workers, "thread" if workers > 1 else "auto")
    plane = ScalePlane(scale_world, n_shards=n_shards, executor=executor)
    plane.ingest()
    return plane


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_topk_matches_brute_force_at_every_grid_point(
        self, scale_world, keywords, submitters, reference, n_shards, workers
    ):
        """The issue's acceptance grid: sharded top-k is bit-identical
        to the unsharded brute-force scan at 1/2/8 workers x 1/4/16
        shards — same ids, same floats, same order."""
        plane = _plane(scale_world, n_shards, workers)
        hits, stats = plane.topk(keywords, submitters, k=10)
        assert hits == reference
        assert stats.pool_size > 0
        assert len(stats.shard_costs) == n_shards

    def test_plain_keyword_list_query(self, scale_world, reference, keywords, submitters):
        plane = _plane(scale_world, 4)
        weighted, __ = plane.topk(keywords, submitters, k=10)
        unweighted, __ = plane.topk(list(keywords), submitters, k=10)
        assert [h.candidate_id for h in weighted] == [
            h.candidate_id for h in reference
        ]
        # Dropping the query weights re-ranks but stays canonical.
        assert unweighted == sorted(
            unweighted, key=lambda h: (-h.total_score, h.candidate_id)
        )

    def test_pool_limit_caps_work(self, scale_world, keywords, submitters):
        plane = _plane(scale_world, 4)
        __, capped = plane.topk(keywords, submitters, k=10, pool_limit=20)
        __, full = plane.topk(keywords, submitters, k=10, pool_limit=None)
        assert capped.pool_size == 20 < full.pool_size
        assert capped.sequential_cost < full.sequential_cost


class TestScreening:
    def test_submitters_never_recommended(self, scale_world, keywords):
        plane = _plane(scale_world, 4)
        submitters = [f"author-{i}" for i in range(8)]
        hits, __ = plane.topk(keywords, submitters, k=200)
        assert not ({h.candidate_id for h in hits} & set(submitters))

    def test_coauthors_screened_with_reasons(self, scale_world):
        plane = _plane(scale_world, 4)
        scholar = scale_world.scholar("author-5")
        coauthor = sorted(scholar.coauthor_ids)[0]
        pool = plane.retrieve(dict(scale_world.interest_weights(scale_world.author_index(coauthor))))
        verdicts = plane.screen(pool, ["author-5"])
        by_id = {v.candidate_id: v for v in verdicts}
        assert coauthor in by_id
        assert by_id[coauthor].has_conflict
        assert "coauthor:author-5" in by_id[coauthor].reasons

    def test_unknown_submitter_screens_nothing_extra(self, scale_world, keywords):
        plane = _plane(scale_world, 4)
        pool = plane.retrieve(keywords)
        baseline = plane.screen(pool, [])
        with_ghost = plane.screen(pool, ["author-99999"])
        assert baseline == with_ghost

    def test_verdicts_in_pool_order(self, scale_world, keywords):
        plane = _plane(scale_world, 16)
        pool = plane.retrieve(keywords)
        verdicts = plane.screen(pool, ["author-0"])
        assert [v.candidate_id for v in verdicts] == [
            m.candidate_id for m in pool
        ]


class TestIngest:
    def test_stats_cover_population(self, scale_world):
        plane = _plane(scale_world, 8)
        stats = plane.stats()
        assert stats["index"]["documents"] == 200
        assert stats["coi_candidates"] == 200
        assert stats["shards"] == 8

    def test_refresh_bumps_epoch_and_keeps_topk(
        self, scale_world, keywords, submitters
    ):
        plane = _plane(scale_world, 4)
        first, __ = plane.topk(keywords, submitters, k=5)
        epoch = plane.index.epoch
        assert plane.refresh() > epoch
        assert plane.index.epoch > epoch
        second, __ = plane.topk(keywords, submitters, k=5)
        assert second == first

    def test_validation(self, scale_world):
        with pytest.raises(ValueError):
            ScalePlane(scale_world, n_shards=0)


class TestScoringRows:
    """Ingest-time scoring rows against the paper-faithful feature build."""

    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_rows_equal_candidate_features(self, scale_world, n_shards):
        plane = _plane(scale_world, n_shards)
        ctx = ScoringContext(
            current_year=scale_world.config.current_year, half_life_years=3.0
        )
        seen = set()
        for shard_id, table in enumerate(plane._rows):
            for candidate_id, row in table.items():
                assert shard_of(candidate_id, n_shards) == shard_id
                candidate = plane.candidate_of(candidate_id)
                features = build_candidate_features(candidate, ctx)
                assert row == (
                    candidate.name,
                    features.log_citations,
                    features.review_experience,
                    features.timeliness,
                )
                seen.add(candidate_id)
        assert seen == set(scale_world.author_ids())

    def test_shard_restricted_ingest_fills_only_owned_shards(self, scale_world):
        plane = ScalePlane(scale_world, n_shards=4)
        plane.ingest(shard_ids={0, 2})
        assert [bool(table) for table in plane._rows] == [True, False, True, False]

    def test_queries_never_realise_a_block(self, keywords, submitters):
        """With a one-block cache every query-time realisation would
        show; after ingest the counter must not move."""
        world = StreamingWorld(_CONFIG, block_size=32, cache_blocks=1)
        plane = ScalePlane(world, n_shards=4)
        plane.ingest()
        before = world.stats()["blocks_realized"]
        queries = [keywords, list(keywords), dict(list(keywords.items())[:1])]
        answers = [plane.topk(query, submitters, k=10)[0] for query in queries]
        assert world.stats()["blocks_realized"] == before
        for query, hits in zip(queries, answers):
            assert hits == plane.brute_force_topk(query, submitters, k=10)


class TestCostModel:
    def test_lpt_makespan_basics(self):
        assert lpt_makespan([], 4) == 0.0
        assert lpt_makespan([5.0, 3.0], 1) == 8.0
        assert lpt_makespan([5.0, 3.0, 2.0], 2) == 5.0
        assert lpt_makespan([4.0] * 8, 4) == 8.0

    def test_makespan_never_beats_bounds(self):
        costs = [7.0, 1.0, 3.0, 3.0, 2.0, 9.0, 4.0]
        for workers in (1, 2, 4, 8):
            makespan = lpt_makespan(costs, workers)
            assert makespan >= max(costs)
            assert makespan >= sum(costs) / workers
            assert makespan <= sum(costs)

    def test_modeled_speedup_monotone_and_bounded(self):
        costs = [10.0] * 16
        speedups = [modeled_speedup(costs, n) for n in (1, 2, 4, 8)]
        assert speedups[0] == 1.0
        assert speedups == sorted(speedups)
        assert all(s <= n for s, n in zip(speedups, (1, 2, 4, 8)))

    def test_balanced_shards_reach_worker_speedup(self):
        assert modeled_speedup([10.0] * 16, 8) == pytest.approx(8.0)


class TestPipelineSharding:
    """Minaret with shards > 1 must be output-identical to shards = 1."""

    def test_recommend_equivalence(self, hub, shared_hub, manuscript):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import Minaret

        baseline = Minaret(hub, config=PipelineConfig(shards=1)).recommend(
            manuscript
        )
        sharded = Minaret(
            shared_hub, config=PipelineConfig(shards=4, workers=4)
        ).recommend(manuscript)
        assert [s.candidate.candidate_id for s in baseline.ranked] == [
            s.candidate.candidate_id for s in sharded.ranked
        ]
        assert [s.total_score for s in baseline.ranked] == [
            s.total_score for s in sharded.ranked
        ]

    def test_config_validates_shards(self):
        from repro.core.config import PipelineConfig

        with pytest.raises(ValueError):
            PipelineConfig(shards=0)

"""Top-k selection: exact prefixes of the full ranking, never approximations."""

import pytest

from repro.core.config import AggregationMethod, PipelineConfig, RankingWeights
from repro.core.models import ScoredCandidate
from repro.core.ranking import NaiveRanker, Ranker
from repro.scoring import select_top_k
from tests.scoring.conftest import expansion, make_candidate, make_manuscript

SEEDS = [
    expansion("Semantic Web", 1.0, "Semantic Web", depth=0),
    expansion("Big Data", 1.0, "Big Data", depth=0),
    expansion("RDF", 0.9, "Semantic Web"),
    expansion("Linked Data", 0.7, "Semantic Web"),
]


def pub(pid, year, keywords=(), title="", venue=""):
    return {
        "id": pid,
        "year": year,
        "keywords": list(keywords),
        "title": title,
        "venue": venue,
    }


def make_pool(size=12):
    """A pool with spread-out component values so rankings are stable."""
    pool = []
    for i in range(size):
        interests = [("Semantic Web", "Big Data", "RDF")[j] for j in range(i % 4 % 3)]
        pubs = [
            pub(f"c{i}-p{j}", 2019 - (i + j) % 8, keywords=(interests or ["x"])[:1])
            for j in range(i % 5)
        ]
        pool.append(
            make_candidate(
                f"cand-{i:02d}",
                interests=interests,
                citations=37 * i % 400,
                h_index=i % 9,
                review_count=(7 * i) % 13,
                on_time_rate=None if i % 3 else 0.1 * (i % 10),
                scholar_pubs=pubs,
                venues_reviewed=(
                    ({"venue": "Journal X", "count": i % 4},) if i % 2 else ()
                ),
                dblp_pubs=(
                    (pub(f"c{i}-d0", 2018, title="a study", venue="Journal X"),)
                    if i % 4 == 0
                    else ()
                ),
            )
        )
    return pool


def signature(ranked):
    return [
        (s.candidate.candidate_id, s.total_score, s.breakdown.as_dict()) for s in ranked
    ]


class TestSelectTopK:
    def scored(self, cid, total):
        return ScoredCandidate(
            candidate=make_candidate(cid), total_score=total, breakdown=None
        )

    def test_none_returns_full_sorted(self):
        scored = [self.scored("b", 0.5), self.scored("a", 0.9), self.scored("c", 0.1)]
        assert [s.candidate.candidate_id for s in select_top_k(scored, None)] == [
            "a",
            "b",
            "c",
        ]

    def test_k_is_exact_prefix(self):
        scored = [self.scored(f"c{i}", (i * 7 % 10) / 10) for i in range(10)]
        full = select_top_k(scored, None)
        assert select_top_k(scored, 3) == full[:3]

    def test_ties_break_by_candidate_id(self):
        scored = [self.scored("z", 0.5), self.scored("a", 0.5), self.scored("m", 0.5)]
        assert [s.candidate.candidate_id for s in select_top_k(scored, 2)] == [
            "a",
            "m",
        ]

    def test_k_at_least_pool_size_is_full_ranking(self):
        scored = [self.scored(f"c{i}", i / 10) for i in range(4)]
        assert select_top_k(scored, 4) == select_top_k(scored, None)
        assert select_top_k(scored, 99) == select_top_k(scored, None)


class TestRankerTopK:
    @pytest.mark.parametrize("k", [1, 3, 5, 12, 50])
    def test_plane_top_k_is_prefix_of_full_ranking(self, k):
        pool = make_pool()
        manuscript = make_manuscript()
        full = Ranker(PipelineConfig()).rank(manuscript, pool, SEEDS)
        top = Ranker(PipelineConfig(top_k=k)).rank(manuscript, pool, SEEDS)
        assert signature(top) == signature(full)[:k]

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_naive_and_plane_agree_under_top_k(self, k):
        pool = make_pool()
        manuscript = make_manuscript()
        config = PipelineConfig(top_k=k)
        plane = Ranker(config).rank(manuscript, pool, SEEDS)
        naive = NaiveRanker(config).rank(manuscript, pool, SEEDS)[:k]
        assert signature(plane) == signature(naive)

    def test_owa_top_k_is_prefix(self):
        pool = make_pool()
        manuscript = make_manuscript()
        config = PipelineConfig(
            aggregation=AggregationMethod.OWA, owa_weights=(0.5, 0.3, 0.2)
        )
        full = Ranker(config).rank(manuscript, pool, SEEDS)
        top = Ranker(
            PipelineConfig(
                aggregation=AggregationMethod.OWA,
                owa_weights=(0.5, 0.3, 0.2),
                top_k=4,
            )
        ).rank(manuscript, pool, SEEDS)
        assert signature(top) == signature(full)[:4]

    def test_skewed_weights_still_exact(self):
        # All weight on recency: the pruned component *is* the score.
        pool = make_pool()
        manuscript = make_manuscript()
        weights = RankingWeights(
            topic_coverage=0.0,
            scientific_impact=0.0,
            recency=1.0,
            review_experience=0.0,
            outlet_familiarity=0.0,
        )
        full = Ranker(PipelineConfig(weights=weights)).rank(manuscript, pool, SEEDS)
        top = Ranker(PipelineConfig(weights=weights, top_k=3)).rank(
            manuscript, pool, SEEDS
        )
        assert signature(top) == signature(full)[:3]

    def test_no_expansions_top_k_still_prefix(self):
        # Empty expansion list: max recency weight is 0, pruning
        # disables itself, yet top_k must still be the exact prefix.
        pool = make_pool()
        manuscript = make_manuscript(keywords=("Semantic Web",))
        full = Ranker(PipelineConfig()).rank(manuscript, pool, [])
        top = Ranker(PipelineConfig(top_k=2)).rank(manuscript, pool, [])
        assert signature(top) == signature(full)[:2]

    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(top_k=0)

    def test_payload_round_trip(self):
        from repro.api.serialization import config_from_payload

        assert config_from_payload({"top_k": 7}).top_k == 7
        assert config_from_payload({}).top_k is None


class TestPruneMetrics:
    def test_prune_rate_visible(self):
        from repro.obs import Observability, use

        pool = make_pool(20)
        manuscript = make_manuscript()
        obs = Observability(enabled=True)
        with use(obs):
            Ranker(PipelineConfig(top_k=2)).rank(manuscript, pool, SEEDS)
        assert obs.metrics.counter_total("scoring_candidates_ranked_total") == 20.0
        assert "scoring_prune_rate" in obs.metrics.snapshot()["gauges"]

    def test_full_ranking_never_prunes(self):
        from repro.obs import Observability, use

        pool = make_pool()
        manuscript = make_manuscript()
        obs = Observability(enabled=True)
        with use(obs):
            Ranker(PipelineConfig()).rank(manuscript, pool, SEEDS)
        assert "scoring_recency_pruned_total" not in obs.metrics.snapshot()["counters"]


class TestCanonicalPruneOrder:
    """Regression: the prune walk's tie-break is candidate id, not
    arrival position (ISSUE 6, satellite 3).

    Clone pools give every candidate an identical recency upper bound,
    so the walk's visiting order is decided purely by the tie-break —
    if that ever regresses to list position, a permuted pool changes
    which candidate's exact recency settles the maximum first and the
    rankings drift.
    """

    def clone_pool(self, size=10):
        pubs = [pub(f"shared-{j}", 2018, keywords=["Semantic Web"]) for j in range(3)]
        return [
            make_candidate(
                f"cand-{i:02d}",
                interests=("Semantic Web",),
                citations=100 + i,
                h_index=5,
                review_count=3,
                scholar_pubs=[
                    dict(p, id=f"c{i}-{p['id']}") for p in pubs
                ],
            )
            for i in range(size)
        ]

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_arrival_order_never_changes_pruned_ranking(self, k):
        import random as stdlib_random

        pool = self.clone_pool()
        manuscript = make_manuscript()
        ranker = Ranker(PipelineConfig(top_k=k))
        reference = signature(ranker.rank(manuscript, pool, SEEDS))
        for seed in range(5):
            shuffled = list(pool)
            stdlib_random.Random(seed).shuffle(shuffled)
            assert signature(ranker.rank(manuscript, shuffled, SEEDS)) == reference

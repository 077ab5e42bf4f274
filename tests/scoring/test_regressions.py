"""Regression tests for the bugs fixed alongside the compute plane.

Two long-standing naive-path crashes:

- ``_owa_aggregate`` divided by the weight sum without guarding zero —
  valid configs like ``(0, 0, 0, 0, 0, 0, 1)`` truncate to an all-zero
  prefix when there are only six components;
- ``_recency`` indexed ``pub["year"]`` directly, crashing on partial
  publication records (real scholarly sources return them routinely).
"""

import pytest

from repro.core.config import AggregationMethod, PipelineConfig
from repro.core.ranking import NaiveRanker, Ranker, _owa_aggregate
from repro.scoring import owa_aggregate
from tests.scoring.conftest import expansion, make_candidate, make_manuscript

SEEDS = [expansion("Semantic Web", 1.0, "Semantic Web", depth=0)]


class TestOwaZeroSumWeights:
    def test_all_zero_weights_fall_back_to_uniform_mean(self):
        assert _owa_aggregate([0.9, 0.3], (0.0, 0.0)) == pytest.approx(0.6)

    def test_truncated_weights_summing_to_zero(self):
        # Valid at config time (the seventh entry is positive), all-zero
        # once truncated to the component count.
        assert _owa_aggregate(
            [0.6, 0.0, 0.3], (0.0, 0.0, 0.0, 1.0)
        ) == pytest.approx(0.3)

    def test_exported_helper_is_the_same_function(self):
        assert owa_aggregate is _owa_aggregate

    @pytest.mark.parametrize("ranker_cls", [Ranker, NaiveRanker], ids=lambda c: c.__name__)
    def test_ranker_survives_truncated_zero_prefix(self, ranker_cls):
        config = PipelineConfig(
            aggregation=AggregationMethod.OWA,
            owa_weights=(0.0,) * 6 + (1.0,),
        )
        candidates = [
            make_candidate("a", interests=("Semantic Web",), citations=100),
            make_candidate("b", review_count=5),
        ]
        ranked = ranker_cls(config).rank(make_manuscript(), candidates, SEEDS)
        # Six components, all-zero truncated weights: every total is the
        # plain component mean.
        assert len(ranked) == 2
        for scored in ranked:
            mean = sum(scored.breakdown.as_dict().values()) / 6
            assert scored.total_score == round(mean, 6)


class TestRecencyPartialRecords:
    YEARLESS = {"id": "p0", "year": None, "keywords": ["semantic web"]}
    DATED = {"id": "p1", "year": 2019, "keywords": ["semantic web"], "title": ""}

    @pytest.mark.parametrize("ranker_cls", [Ranker, NaiveRanker], ids=lambda c: c.__name__)
    def test_yearless_publication_is_skipped_not_fatal(self, ranker_cls):
        with_partial = make_candidate(
            "a", scholar_pubs=(dict(self.YEARLESS), dict(self.DATED))
        )
        ranked = ranker_cls(PipelineConfig()).rank(
            make_manuscript(), [with_partial], SEEDS
        )
        assert len(ranked) == 1
        assert ranked[0].breakdown.recency > 0

    def test_yearless_contributes_nothing(self):
        config = PipelineConfig()
        clean = make_candidate("a", scholar_pubs=(dict(self.DATED),))
        noisy = make_candidate("a", scholar_pubs=(dict(self.YEARLESS), dict(self.DATED)))
        ranker = NaiveRanker(config)
        assert ranker._recency(noisy, SEEDS) == ranker._recency(clean, SEEDS)

    def test_missing_year_key_is_skipped_too(self):
        ranker = NaiveRanker(PipelineConfig())
        candidate = make_candidate(
            "a", scholar_pubs=({"id": "p0", "keywords": ["semantic web"]},)
        )
        assert ranker._recency(candidate, SEEDS) == 0.0

"""Tests for pipeline configuration objects."""

import pytest

from repro.core.config import (
    AffiliationCoiLevel,
    CoiConfig,
    ExpertiseConstraints,
    FilterConfig,
    ImpactMetric,
    PipelineConfig,
    RankingWeights,
)


class TestRankingWeights:
    def test_defaults_valid(self):
        weights = RankingWeights()
        assert sum(weights.as_dict().values()) == pytest.approx(1.0)

    def test_normalized_sums_to_one(self):
        weights = RankingWeights(
            topic_coverage=2.0,
            scientific_impact=1.0,
            recency=1.0,
            review_experience=0.0,
            outlet_familiarity=0.0,
        )
        normalized = weights.normalized()
        assert sum(normalized.values()) == pytest.approx(1.0)
        assert normalized["topic_coverage"] == pytest.approx(0.5)

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_negative_weight_rejected(self, value):
        with pytest.raises(ValueError, match="topic_coverage"):
            RankingWeights(topic_coverage=value)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            RankingWeights(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_without_zeroes_one_component(self):
        ablated = RankingWeights().without("recency")
        assert ablated.recency == 0.0
        assert ablated.topic_coverage == RankingWeights().topic_coverage

    def test_without_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            RankingWeights().without("charisma")


class TestExpertiseConstraints:
    def test_trivial_detection(self):
        assert ExpertiseConstraints().is_trivial()
        assert not ExpertiseConstraints(min_citations=10).is_trivial()


class TestFilterConfig:
    def test_defaults(self):
        config = FilterConfig()
        assert config.min_keyword_score == 0.5
        assert config.coi.check_coauthorship

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(min_keyword_score=1.5)

    def test_pc_members_tuple(self):
        config = FilterConfig(pc_members=("Ada Lovelace",))
        assert config.pc_members == ("Ada Lovelace",)


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.impact_metric is ImpactMetric.H_INDEX
        assert config.max_candidates == 50

    def test_bad_candidates_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_candidates=0)

    def test_bad_retrieval_limit_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(per_keyword_retrieval_limit=0)

    def test_bad_half_life_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(recency_half_life_years=0)


class TestEnums:
    def test_affiliation_levels(self):
        assert AffiliationCoiLevel("country") is AffiliationCoiLevel.COUNTRY

    def test_impact_metric_values(self):
        assert ImpactMetric("citations") is ImpactMetric.CITATIONS

    def test_coi_config_defaults(self):
        config = CoiConfig()
        assert config.affiliation_level is AffiliationCoiLevel.UNIVERSITY
        assert config.coauthorship_lookback_years is None

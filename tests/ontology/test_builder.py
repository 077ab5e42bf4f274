"""Tests for the synthetic ontology generator."""

import pytest

from repro.ontology.builder import SyntheticOntologyConfig, build_synthetic_ontology
from repro.ontology.graph import Relation


class TestConfigValidation:
    def test_zero_topics_rejected(self):
        with pytest.raises(ValueError):
            SyntheticOntologyConfig(topic_count=0)

    def test_zero_branching_rejected(self):
        with pytest.raises(ValueError):
            SyntheticOntologyConfig(branching=0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            SyntheticOntologyConfig(max_depth=-1)


class TestGeneration:
    def test_topic_count_honoured(self):
        onto = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=200))
        assert len(onto) <= 200
        assert len(onto) >= 150  # frontier exhaustion may stop short

    def test_deterministic(self):
        config = SyntheticOntologyConfig(topic_count=150, seed=3)
        a = build_synthetic_ontology(config)
        b = build_synthetic_ontology(config)
        assert len(a) == len(b)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=300, seed=1))
        b = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=300, seed=2))
        assert len(list(a.edges())) != len(list(b.edges()))

    def test_single_root(self):
        onto = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=100))
        assert [t.topic_id for t in onto.roots()] == ["topic-0"]

    def test_max_depth_respected(self):
        config = SyntheticOntologyConfig(topic_count=500, max_depth=3)
        onto = build_synthetic_ontology(config)
        assert max(onto.depth(t.topic_id) for t in onto.topics()) <= 3

    def test_related_edges_connect_same_depth(self):
        config = SyntheticOntologyConfig(
            topic_count=300, related_probability=1.0, seed=5
        )
        onto = build_synthetic_ontology(config)
        related_pairs = [
            (edge.source, edge.target)
            for edge in onto.edges()
            if edge.relation is Relation.RELATED
        ]
        assert related_pairs  # probability 1.0 must produce some
        for source, target in related_pairs:
            assert onto.depth(source) == onto.depth(target)

    def test_tiny_ontology(self):
        onto = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=1))
        assert len(onto) == 1

"""Sanity tests over the curated seed ontology."""

import pytest

from repro.ontology.data import _TOPICS, build_seed_ontology
from repro.ontology.graph import Relation


@pytest.fixture(scope="module")
def onto():
    return build_seed_ontology()


class TestShape:
    def test_size(self, onto):
        assert len(onto) >= 250

    def test_link_density(self, onto):
        # CSO-like: more links than topics.
        assert len(list(onto.edges())) // 2 >= len(onto)

    def test_single_root(self, onto):
        assert [t.topic_id for t in onto.roots()] == ["computer-science"]

    def test_every_topic_reaches_the_root(self, onto):
        for topic in onto.topics():
            if topic.topic_id == "computer-science":
                continue
            chain = onto.broader_chain(topic.topic_id)
            assert chain, f"{topic.topic_id} has no broader chain"
            assert chain[-1].topic_id == "computer-science"

    def test_depth_is_bounded(self, onto):
        assert max(onto.depth(t.topic_id) for t in onto.topics()) <= 7

    def test_declaration_order_ids_unique(self):
        ids = [topic_id for topic_id, *__ in _TOPICS]
        assert len(ids) == len(set(ids))


class TestContent:
    def test_paper_example_topics_present(self, onto):
        for topic_id in ("rdf", "sparql", "semantic-web", "linked-open-data"):
            assert topic_id in onto

    def test_rdf_broader_semantic_web(self, onto):
        parents = {t.topic_id for t in onto.related("rdf", Relation.BROADER)}
        assert "semantic-web" in parents

    def test_alt_labels_resolve(self, onto):
        assert onto.find("web ontology language").topic_id == "owl"
        assert onto.find("nosql databases").topic_id == "nosql"

    def test_domain_specific_topics(self, onto):
        # The reproduction's own subject matter is in the ontology.
        for topic_id in ("reviewer-assignment", "peer-review", "name-disambiguation"):
            assert topic_id in onto

    def test_labels_nonempty(self, onto):
        assert all(t.label for t in onto.topics())

    def test_deterministic_rebuild(self):
        first = build_seed_ontology()
        second = build_seed_ontology()
        assert len(first) == len(second)
        assert list(first.edges()) == list(second.edges())

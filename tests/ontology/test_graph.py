"""Unit tests for the typed topic graph."""

import pytest

from repro.ontology.graph import Edge, Relation, Topic, TopicOntology, UnknownTopicError


@pytest.fixture()
def onto():
    graph = TopicOntology()
    graph.add_topic("cs", "Computer Science")
    graph.add_topic("sw", "Semantic Web")
    graph.add_topic("rdf", "RDF", alt_labels=("resource description framework",))
    graph.add_topic("sparql", "SPARQL")
    graph.add_topic("lod", "Linked Open Data")
    graph.add_edge("sw", Relation.BROADER, "cs")
    graph.add_edge("rdf", Relation.BROADER, "sw")
    graph.add_edge("sparql", Relation.BROADER, "rdf")
    graph.add_edge("lod", Relation.BROADER, "sw")
    graph.add_edge("rdf", Relation.RELATED, "lod")
    return graph


class TestRelation:
    def test_broader_inverse(self):
        assert Relation.BROADER.inverse() is Relation.NARROWER

    def test_narrower_inverse(self):
        assert Relation.NARROWER.inverse() is Relation.BROADER

    def test_symmetric_relations_self_inverse(self):
        assert Relation.RELATED.inverse() is Relation.RELATED
        assert Relation.SAME_AS.inverse() is Relation.SAME_AS


class TestTopics:
    def test_len_and_contains(self, onto):
        assert len(onto) == 5
        assert "rdf" in onto
        assert "RDF" in onto  # slugified lookup
        assert "nope" not in onto

    def test_topic_fetch(self, onto):
        assert onto.topic("rdf").label == "RDF"

    def test_unknown_topic_raises(self, onto):
        with pytest.raises(UnknownTopicError):
            onto.topic("nope")

    def test_add_is_idempotent_with_same_label(self, onto):
        onto.add_topic("rdf", "RDF")
        assert len(onto) == 5

    def test_add_merges_alt_labels(self, onto):
        onto.add_topic("rdf", "RDF", alt_labels=("rdf 1.1",))
        assert "rdf 1.1" in onto.topic("rdf").alt_labels
        assert "resource description framework" in onto.topic("rdf").alt_labels

    def test_conflicting_label_rejected(self, onto):
        with pytest.raises(ValueError):
            onto.add_topic("rdf", "Something Else")

    def test_default_label_derived_from_id(self):
        graph = TopicOntology()
        topic = graph.add_topic("big-data")
        assert topic.label == "big data"

    def test_all_labels(self, onto):
        assert onto.topic("rdf").all_labels() == (
            "RDF",
            "resource description framework",
        )


class TestFind:
    def test_find_by_label(self, onto):
        assert onto.find("Semantic Web").topic_id == "sw"

    def test_find_by_alt_label(self, onto):
        assert onto.find("Resource Description Framework").topic_id == "rdf"

    def test_find_by_slug(self, onto):
        assert onto.find("sw").topic_id == "sw"

    def test_find_normalizes(self, onto):
        assert onto.find("  semantic   WEB ").topic_id == "sw"

    def test_find_missing_returns_none(self, onto):
        assert onto.find("quantum basket weaving") is None


class TestEdges:
    def test_self_loop_rejected(self, onto):
        with pytest.raises(ValueError):
            onto.add_edge("rdf", Relation.RELATED, "rdf")

    def test_edge_to_unknown_topic_rejected(self, onto):
        with pytest.raises(UnknownTopicError):
            onto.add_edge("rdf", Relation.BROADER, "nope")

    def test_neighbors_report_inverse_relation(self, onto):
        neighbor_map = {
            t.topic_id: r for t, r in onto.neighbors("sw")
        }
        assert neighbor_map["cs"] is Relation.BROADER
        assert neighbor_map["rdf"] is Relation.NARROWER

    def test_related_by_type(self, onto):
        narrower = [t.topic_id for t in onto.related("sw", Relation.NARROWER)]
        assert narrower == ["lod", "rdf"]

    def test_symmetric_relation_visible_both_ways(self, onto):
        assert "lod" in {t.topic_id for t in onto.related("rdf", Relation.RELATED)}
        assert "rdf" in {t.topic_id for t in onto.related("lod", Relation.RELATED)}

    def test_edges_list_each_link_both_ways(self, onto):
        edges = set(onto.edges())
        assert len(edges) == 10
        assert all(
            Edge(edge.target, edge.relation.inverse(), edge.source) in edges
            for edge in edges
        )

    def test_neighbors_unknown_topic(self, onto):
        with pytest.raises(UnknownTopicError):
            onto.neighbors("nope")


class TestHierarchy:
    def test_broader_chain(self, onto):
        chain = [t.topic_id for t in onto.broader_chain("sparql")]
        assert chain == ["rdf", "sw", "cs"]

    def test_depth(self, onto):
        assert onto.depth("cs") == 0
        assert onto.depth("sw") == 1
        assert onto.depth("sparql") == 3

    def test_roots(self, onto):
        assert [t.topic_id for t in onto.roots()] == ["cs"]

    def test_broader_chain_handles_cycles(self):
        graph = TopicOntology()
        graph.add_topic("a")
        graph.add_topic("b")
        # a broader b and b broader a — pathological but must terminate.
        graph.add_edge("a", Relation.BROADER, "b")
        graph.add_edge("b", Relation.BROADER, "a")
        chain = graph.broader_chain("a")
        assert [t.topic_id for t in chain] == ["b"]

"""Tests for the CSO CSV reader/writer."""

import pytest

from repro.ontology.cso import load_cso_csv, parse_cso_csv, write_cso_csv
from repro.ontology.data import build_seed_ontology
from repro.ontology.expansion import KeywordExpander
from repro.ontology.graph import Relation

SAMPLE = """\
"<https://cso.kmi.open.ac.uk/topics/semantic_web>","<http://cso.kmi.open.ac.uk/schema/cso#superTopicOf>","<https://cso.kmi.open.ac.uk/topics/rdf>"
"<https://cso.kmi.open.ac.uk/topics/rdf>","<http://cso.kmi.open.ac.uk/schema/cso#superTopicOf>","<https://cso.kmi.open.ac.uk/topics/sparql>"
"<https://cso.kmi.open.ac.uk/topics/rdf>","<http://cso.kmi.open.ac.uk/schema/cso#contributesTo>","<https://cso.kmi.open.ac.uk/topics/linked_data>"
"<https://cso.kmi.open.ac.uk/topics/rdf>","<http://cso.kmi.open.ac.uk/schema/cso#relatedEquivalent>","<https://cso.kmi.open.ac.uk/topics/resource_description_framework>"
"<https://cso.kmi.open.ac.uk/topics/rdf>","<http://www.w3.org/2000/01/rdf-schema#label>","RDF"
"<https://cso.kmi.open.ac.uk/topics/rdf>","<http://www.w3.org/2002/07/owl#sameAs>","<http://dbpedia.org/resource/Resource_Description_Framework>"
"""


class TestParse:
    def test_topics_extracted(self):
        onto = parse_cso_csv(SAMPLE)
        for slug in ("semantic-web", "rdf", "sparql", "linked-data"):
            assert slug in onto

    def test_super_topic_becomes_broader(self):
        onto = parse_cso_csv(SAMPLE)
        parents = {t.topic_id for t in onto.related("rdf", Relation.BROADER)}
        assert parents == {"semantic-web"}
        children = {t.topic_id for t in onto.related("rdf", Relation.NARROWER)}
        assert "sparql" in children

    def test_contributes_to_becomes_related(self):
        onto = parse_cso_csv(SAMPLE)
        related = {t.topic_id for t in onto.related("rdf", Relation.RELATED)}
        assert "linked-data" in related

    def test_related_equivalent_becomes_same_as(self):
        onto = parse_cso_csv(SAMPLE)
        synonyms = {t.topic_id for t in onto.related("rdf", Relation.SAME_AS)}
        assert "resource-description-framework" in synonyms

    def test_label_applied(self):
        onto = parse_cso_csv(SAMPLE)
        assert onto.topic("rdf").label == "RDF"

    def test_external_links_ignored(self):
        onto = parse_cso_csv(SAMPLE)
        assert "resource-description-framework" in onto
        # The DBpedia URL must not have become a topic.
        assert all("dbpedia" not in t.topic_id for t in onto.topics())

    def test_blank_lines_tolerated(self):
        onto = parse_cso_csv("\n" + SAMPLE + "\n\n")
        assert "rdf" in onto

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError, match="expected 3"):
            parse_cso_csv('"only","two"\n')

    def test_expansion_works_on_parsed_ontology(self):
        onto = parse_cso_csv(SAMPLE)
        expander = KeywordExpander(onto)
        labels = {e.keyword for e in expander.expand(["RDF"])}
        assert "semantic web" in labels
        assert "sparql" in labels


class TestRoundTrip:
    def test_seed_ontology_survives_cso_round_trip(self, tmp_path):
        original = build_seed_ontology()
        path = tmp_path / "cso.csv"
        write_cso_csv(original, path)
        restored = load_cso_csv(path)
        assert len(restored) == len(original)
        assert set(restored.edges()) == set(original.edges())
        assert restored.topic("rdf").label == "RDF"
        parents = {t.topic_id for t in restored.related("rdf", Relation.BROADER)}
        assert "semantic-web" in parents

    def test_round_trip_preserves_expansion_semantics(self, tmp_path):
        path = tmp_path / "cso.csv"
        write_cso_csv(build_seed_ontology(), path)
        restored = load_cso_csv(path)
        expander = KeywordExpander(restored)
        labels = {e.keyword for e in expander.expand(["RDF"])}
        assert {"Semantic Web", "Linked Open Data", "SPARQL"} <= labels

"""Round-trip tests for ontology serialization."""

import pytest

from repro.ontology.builder import SyntheticOntologyConfig, build_synthetic_ontology
from repro.ontology.data import build_seed_ontology
from repro.ontology.graph import Relation
from repro.ontology.io import ontology_from_dict, ontology_to_dict


class TestRoundTrip:
    def test_seed_ontology_roundtrips(self):
        original = build_seed_ontology()
        restored = ontology_from_dict(ontology_to_dict(original))
        assert len(restored) == len(original)
        assert set(restored.edges()) == set(original.edges())

    def test_labels_survive(self):
        original = build_seed_ontology()
        restored = ontology_from_dict(ontology_to_dict(original))
        assert restored.topic("rdf").label == "RDF"
        assert restored.find("resource description framework").topic_id == "rdf"

    def test_relations_survive(self):
        original = build_seed_ontology()
        restored = ontology_from_dict(ontology_to_dict(original))
        parents = {t.topic_id for t in restored.related("rdf", Relation.BROADER)}
        assert "semantic-web" in parents

    def test_synthetic_roundtrips(self):
        original = build_synthetic_ontology(SyntheticOntologyConfig(topic_count=120))
        restored = ontology_from_dict(ontology_to_dict(original))
        assert len(restored) == len(original)
        assert set(restored.edges()) == set(original.edges())

    def test_serialization_is_deterministic(self):
        onto = build_seed_ontology()
        assert ontology_to_dict(onto) == ontology_to_dict(onto)

    def test_symmetric_edges_emitted_once(self):
        data = ontology_to_dict(build_seed_ontology())
        related = [
            (e["source"], e["target"])
            for e in data["edges"]
            if e["relation"] == "related"
        ]
        assert len(related) == len(set(related))
        assert all(s <= t for s, t in related)


class TestFormatGuard:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            ontology_from_dict({"format": "not-a-format", "topics": [], "edges": []})

    def test_missing_format_rejected(self):
        with pytest.raises(ValueError):
            ontology_from_dict({"topics": [], "edges": []})

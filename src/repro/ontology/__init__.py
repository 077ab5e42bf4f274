"""Topic-ontology substrate: a CSO-style ontology of computer science.

MINARET widens the candidate-reviewer search by semantically expanding
the manuscript keywords against the Computer Science Ontology
(https://cso.kmi.open.ac.uk).  That resource cannot be redistributed
here, so this package provides:

- :class:`~repro.ontology.graph.TopicOntology` — a typed topic graph with
  ``broader`` / ``narrower`` / ``related`` / ``same_as`` relations and
  label-based lookup, the same relation vocabulary CSO uses;
- :mod:`~repro.ontology.data` — a curated ~300-topic seed covering the
  areas the paper's demo exercises (semantic web, databases, big data,
  machine learning, ...), including the paper's worked example:
  expanding "RDF" yields "Semantic Web", "Linked Open Data" and "SPARQL";
- :class:`~repro.ontology.expansion.KeywordExpander` — the expansion
  engine that assigns each expanded keyword a similarity score
  ``sc ∈ [0, 1]`` by decaying over relation-typed paths (paper §2.1);
- :mod:`~repro.ontology.builder` — a deterministic generator of large
  synthetic ontologies for scale experiments;
- :mod:`~repro.ontology.io` — dict round-tripping, which world files
  embed;
- :mod:`~repro.ontology.cso` — a reader/writer for the real CSO CSV
  export the paper used.
"""

from repro.ontology.builder import SyntheticOntologyConfig, build_synthetic_ontology
from repro.ontology.cso import load_cso_csv, parse_cso_csv, write_cso_csv
from repro.ontology.data import build_seed_ontology
from repro.ontology.expansion import ExpandedKeyword, ExpansionConfig, KeywordExpander
from repro.ontology.graph import Relation, Topic, TopicOntology
from repro.ontology.io import ontology_from_dict, ontology_to_dict

__all__ = [
    "ExpandedKeyword",
    "ExpansionConfig",
    "KeywordExpander",
    "Relation",
    "SyntheticOntologyConfig",
    "Topic",
    "TopicOntology",
    "build_seed_ontology",
    "build_synthetic_ontology",
    "load_cso_csv",
    "parse_cso_csv",
    "write_cso_csv",
    "ontology_from_dict",
    "ontology_to_dict",
]

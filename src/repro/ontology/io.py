"""JSON-compatible dict round-tripping for ontologies.

The web application described in the paper loads its topic ontology from
a downloadable CSO dump; these helpers provide the equivalent
serialization, which world files embed so an ontology ships alongside
the world it was generated with.
"""

from __future__ import annotations

from repro.ontology.graph import Relation, TopicOntology

#: Relations serialized explicitly; inverses are rebuilt on load.
_CANONICAL_RELATIONS = (Relation.BROADER, Relation.RELATED, Relation.SAME_AS)


def ontology_to_dict(ontology: TopicOntology) -> dict:
    """Serialize an ontology to a JSON-compatible dict.

    Only canonical relation directions are emitted (``broader``,
    ``related``, ``same_as``); symmetric relations are emitted once with
    ``source < target``.
    """
    topics = [
        {
            "id": topic.topic_id,
            "label": topic.label,
            "alt_labels": list(topic.alt_labels),
        }
        for topic in sorted(ontology.topics(), key=lambda t: t.topic_id)
    ]
    edges = []
    seen: set[tuple[str, str, str]] = set()
    for edge in ontology.edges():
        if edge.relation not in _CANONICAL_RELATIONS:
            continue
        if edge.relation in (Relation.RELATED, Relation.SAME_AS):
            key_pair = tuple(sorted((edge.source, edge.target)))
            key = (key_pair[0], edge.relation.value, key_pair[1])
        else:
            key = (edge.source, edge.relation.value, edge.target)
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            {"source": key[0], "relation": key[1], "target": key[2]}
        )
    edges.sort(key=lambda e: (e["source"], e["relation"], e["target"]))
    return {"format": "minaret-ontology/1", "topics": topics, "edges": edges}


def ontology_from_dict(data: dict) -> TopicOntology:
    """Rebuild an ontology from :func:`ontology_to_dict` output."""
    if data.get("format") != "minaret-ontology/1":
        raise ValueError(f"unsupported ontology format: {data.get('format')!r}")
    ontology = TopicOntology()
    for topic in data["topics"]:
        ontology.add_topic(
            topic["id"], topic["label"], alt_labels=tuple(topic.get("alt_labels", ()))
        )
    for edge in data["edges"]:
        ontology.add_edge(
            edge["source"], Relation(edge["relation"]), edge["target"]
        )
    return ontology


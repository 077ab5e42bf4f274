"""The typed topic graph underlying keyword expansion.

Mirrors the Computer Science Ontology's relation vocabulary:

``broader``
    Child topic → more general topic ("sparql" broader "rdf").
``narrower``
    Inverse of broader; stored implicitly and derived on query.
``related``
    Symmetric relatedness between siblings/cousins.
``same_as``
    Synonymy/equivalence ("rdf" same-as "resource description framework").

Topics are identified by slug ids; every topic carries a preferred label
and any number of alternative labels, all of which resolve through
:meth:`TopicOntology.find`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from repro.text.normalize import normalize_keyword, slugify


class Relation(str, Enum):
    """Typed edges of the ontology."""

    BROADER = "broader"
    NARROWER = "narrower"
    RELATED = "related"
    SAME_AS = "same_as"

    def inverse(self) -> "Relation":
        """The relation seen from the other endpoint."""
        if self is Relation.BROADER:
            return Relation.NARROWER
        if self is Relation.NARROWER:
            return Relation.BROADER
        return self


@dataclass(frozen=True)
class Topic:
    """A topic node: slug id, preferred label, alternative labels."""

    topic_id: str
    label: str
    alt_labels: tuple[str, ...] = ()

    def all_labels(self) -> tuple[str, ...]:
        """Preferred label followed by alternatives."""
        return (self.label, *self.alt_labels)


@dataclass(frozen=True)
class Edge:
    """A directed typed edge between two topics."""

    source: str
    relation: Relation
    target: str


class UnknownTopicError(KeyError):
    """Raised when a topic id is not present in the ontology."""

    def __init__(self, topic_id: str):
        super().__init__(topic_id)
        self.topic_id = topic_id

    def __str__(self) -> str:
        return f"unknown topic: {self.topic_id!r}"


class TopicOntology:
    """A mutable typed topic graph with label lookup.

    Edges are stored directionally per relation; ``narrower`` edges are
    materialized automatically as the inverse of ``broader`` (and vice
    versa), and ``related`` / ``same_as`` edges are kept symmetric, so
    traversal never needs to special-case direction.

    Example
    -------
    >>> onto = TopicOntology()
    >>> _ = onto.add_topic("rdf", "RDF", alt_labels=("resource description framework",))
    >>> _ = onto.add_topic("semantic-web", "Semantic Web")
    >>> onto.add_edge("rdf", Relation.BROADER, "semantic-web")
    >>> [t.topic_id for t, r in onto.neighbors("semantic-web")]
    ['rdf']
    """

    def __init__(self):
        self._topics: dict[str, Topic] = {}
        self._edges: dict[str, dict[Relation, set[str]]] = {}
        self._label_index: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_topic(
        self,
        topic_id: str,
        label: str | None = None,
        alt_labels: Iterable[str] = (),
    ) -> Topic:
        """Add a topic; idempotent when labels agree, error when they clash.

        When ``label`` is omitted it is derived from the id.  All labels
        are registered in the lookup index under their normalized form.
        """
        topic_id = slugify(topic_id)
        label = label if label is not None else topic_id.replace("-", " ")
        new_topic = Topic(topic_id=topic_id, label=label, alt_labels=tuple(alt_labels))
        existing = self._topics.get(topic_id)
        if existing is not None:
            if existing.label != new_topic.label:
                raise ValueError(
                    f"topic {topic_id!r} already exists with label "
                    f"{existing.label!r}, refusing {new_topic.label!r}"
                )
            merged_alts = tuple(
                dict.fromkeys(existing.alt_labels + new_topic.alt_labels)
            )
            new_topic = Topic(topic_id, existing.label, merged_alts)
        self._topics[topic_id] = new_topic
        self._edges.setdefault(topic_id, {})
        for one_label in new_topic.all_labels():
            self._label_index[normalize_keyword(one_label)] = topic_id
        return new_topic

    def add_edge(self, source: str, relation: Relation, target: str) -> None:
        """Add a typed edge plus its implied inverse.

        Both endpoints must already exist.  Self-loops are rejected: a
        topic related to itself would give expansion a free score-1 cycle.
        """
        source, target = slugify(source), slugify(target)
        if source == target:
            raise ValueError(f"self-loop on topic {source!r}")
        for endpoint in (source, target):
            if endpoint not in self._topics:
                raise UnknownTopicError(endpoint)
        self._edges[source].setdefault(relation, set()).add(target)
        inverse = relation.inverse()
        self._edges[target].setdefault(inverse, set()).add(source)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._topics)

    def __contains__(self, topic_id: str) -> bool:
        return slugify(topic_id) in self._topics

    def topics(self) -> Iterator[Topic]:
        """Iterate over every topic."""
        return iter(self._topics.values())

    def topic(self, topic_id: str) -> Topic:
        """Fetch a topic by id; raises :class:`UnknownTopicError`."""
        slug = slugify(topic_id)
        try:
            return self._topics[slug]
        except KeyError:
            raise UnknownTopicError(slug) from None

    def find(self, label_or_id: str) -> Topic | None:
        """Resolve a free-text label or id to a topic, or ``None``.

        Lookup is by normalized label, covering preferred and alternative
        labels; falls back to treating the input as a slug id.
        """
        normalized = normalize_keyword(label_or_id)
        topic_id = self._label_index.get(normalized)
        if topic_id is not None:
            return self._topics[topic_id]
        slug = slugify(label_or_id)
        return self._topics.get(slug)

    def neighbors(self, topic_id: str) -> list[tuple[Topic, Relation]]:
        """All (topic, relation) pairs reachable over one edge.

        The relation reported is the one *from the queried topic's
        perspective* — asking for the neighbors of "semantic-web" over a
        ``rdf --broader--> semantic-web`` edge yields
        ``(rdf, NARROWER)``.
        """
        slug = slugify(topic_id)
        if slug not in self._topics:
            raise UnknownTopicError(slug)
        result = []
        for relation, targets in self._edges[slug].items():
            for target in sorted(targets):
                result.append((self._topics[target], relation))
        result.sort(key=lambda pair: (pair[0].topic_id, pair[1].value))
        return result

    def related(self, topic_id: str, relation: Relation) -> list[Topic]:
        """Topics reachable over exactly one edge of the given relation."""
        slug = slugify(topic_id)
        if slug not in self._topics:
            raise UnknownTopicError(slug)
        targets = self._edges[slug].get(relation, set())
        return [self._topics[t] for t in sorted(targets)]

    def broader_chain(self, topic_id: str) -> list[Topic]:
        """Walk ``broader`` edges to a root, preferring the first parent.

        The ontology is a DAG, not a tree; this deterministic walk (first
        parent by id) gives each topic a canonical ancestry, whose length
        is :meth:`depth`.
        """
        chain = []
        seen = {slugify(topic_id)}
        current = slugify(topic_id)
        while True:
            parents = self.related(current, Relation.BROADER)
            parents = [p for p in parents if p.topic_id not in seen]
            if not parents:
                return chain
            parent = parents[0]
            chain.append(parent)
            seen.add(parent.topic_id)
            current = parent.topic_id

    def edges(self) -> Iterator[Edge]:
        """Iterate over every stored directed edge (including inverses)."""
        for source, by_relation in self._edges.items():
            for relation, targets in by_relation.items():
                for target in sorted(targets):
                    yield Edge(source=source, relation=relation, target=target)

    def roots(self) -> list[Topic]:
        """Topics with no broader parent (the top of the hierarchy)."""
        return [
            topic
            for topic in self._topics.values()
            if not self._edges[topic.topic_id].get(Relation.BROADER)
        ]

    def depth(self, topic_id: str) -> int:
        """Distance to a root along the canonical broader chain (root = 0)."""
        return len(self.broader_chain(topic_id))

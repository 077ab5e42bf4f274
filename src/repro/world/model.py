"""The generated world: entities, derived structures and the oracle.

:class:`ScholarlyWorld` is the complete, noise-free truth about the
synthetic scholarly community.  The simulated sources each expose a
*partial, per-source view* of it; the pipeline only ever sees those
views.  :class:`GroundTruthOracle` answers the questions experiments
need: who are the truly best reviewers for a manuscript, and who truly
has a conflict of interest.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.ontology.graph import TopicOntology
from repro.scholarly.records import (
    Affiliation,
    Publication,
    ReviewRecord,
    SourceName,
    Venue,
)


@dataclass(frozen=True)
class WorldAuthor:
    """A scholar as the world truly knows them.

    Attributes
    ----------
    author_id:
        World-level id (never visible to the pipeline; sources each mint
        their own).
    name:
        Full name; may deliberately collide with another author's.
    topic_expertise:
        ``topic_id -> expertise in (0, 1]`` — the hidden competence the
        sources reflect only through publications and interests.
    affiliations:
        Employment history (institution, country, years).
    career_start:
        First active year.
    responsiveness:
        Hidden probability in (0, 1] of returning a review promptly; the
        paper's "likelihood to accept and timely return" criterion tries
        to estimate exactly this from observable signals.
    review_quality:
        Hidden quality of the reviews this scholar writes, in (0, 1].
    prominence:
        Hidden fame multiplier driving citation counts, in (0, 1].
    covered_by:
        Which sources host a profile for this scholar.
    """

    author_id: str
    name: str
    topic_expertise: dict[str, float]
    affiliations: tuple[Affiliation, ...]
    career_start: int
    responsiveness: float
    review_quality: float
    prominence: float
    covered_by: frozenset[SourceName]

    def primary_topic(self) -> str:
        """The topic with highest expertise (ties broken by id)."""
        return max(self.topic_expertise.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def topics(self) -> set[str]:
        """All topic ids this author truly works on."""
        return set(self.topic_expertise)


@dataclass
class ScholarlyWorld:
    """Complete generated world plus derived lookup structures."""

    config: object
    ontology: TopicOntology
    authors: dict[str, WorldAuthor]
    venues: dict[str, Venue]
    publications: dict[str, Publication]
    reviews: dict[str, ReviewRecord]
    # Derived (filled by finalize)
    publications_by_author: dict[str, list[str]] = field(default_factory=dict)
    reviews_by_reviewer: dict[str, list[str]] = field(default_factory=dict)
    coauthors: dict[str, set[str]] = field(default_factory=dict)

    def finalize(self) -> "ScholarlyWorld":
        """(Re)build the derived lookup structures; returns self."""
        pubs_by_author: dict[str, list[str]] = defaultdict(list)
        coauthors: dict[str, set[str]] = defaultdict(set)
        for pub in self.publications.values():
            for author_id in pub.author_ids:
                pubs_by_author[author_id].append(pub.pub_id)
            for author_id in pub.author_ids:
                for other_id in pub.author_ids:
                    if other_id != author_id:
                        coauthors[author_id].add(other_id)
        reviews_by_reviewer: dict[str, list[str]] = defaultdict(list)
        for review in self.reviews.values():
            reviews_by_reviewer[review.reviewer_id].append(review.review_id)
        # Deterministic ordering: by year then id.
        for author_id, pub_ids in pubs_by_author.items():
            pub_ids.sort(key=lambda p: (self.publications[p].year, p))
        for reviewer_id, review_ids in reviews_by_reviewer.items():
            review_ids.sort(key=lambda r: (self.reviews[r].year, r))
        self.publications_by_author = dict(pubs_by_author)
        self.reviews_by_reviewer = dict(reviews_by_reviewer)
        self.coauthors = dict(coauthors)
        return self

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def author_publications(self, author_id: str) -> list[Publication]:
        """All publications of an author, oldest first."""
        return [
            self.publications[p]
            for p in self.publications_by_author.get(author_id, [])
        ]

    def author_reviews(self, author_id: str) -> list[ReviewRecord]:
        """All review records of an author, oldest first."""
        return [self.reviews[r] for r in self.reviews_by_reviewer.get(author_id, [])]

    def authors_by_name(self, name: str) -> list[WorldAuthor]:
        """All authors bearing exactly this full name (collision groups)."""
        return [a for a in self.authors.values() if a.name == name]

    def journal_venues(self) -> list[Venue]:
        """All journals, sorted by id."""
        from repro.scholarly.records import VenueType

        return sorted(
            (v for v in self.venues.values() if v.venue_type == VenueType.JOURNAL),
            key=lambda v: v.venue_id,
        )

    def dblp_records_per_year(self) -> dict[int, dict[str, int]]:
        """Publication counts per year per venue type — the Fig. 1 data."""
        from repro.scholarly.records import VenueType

        counts: dict[int, dict[str, int]] = defaultdict(
            lambda: {t.value: 0 for t in VenueType}
        )
        for pub in self.publications.values():
            venue = self.venues[pub.venue_id]
            counts[pub.year][venue.venue_type.value] += 1
        return {year: dict(by_type) for year, by_type in sorted(counts.items())}


class GroundTruthOracle:
    """Answers "what *should* the recommender have done" questions.

    All scoring uses the hidden variables, which the pipeline can never
    observe directly — that is what makes precision@k against the oracle
    a meaningful quality measure rather than a tautology.
    """

    def __init__(self, world: ScholarlyWorld):
        self._world = world

    # ------------------------------------------------------------------
    # Relevance and utility
    # ------------------------------------------------------------------

    def topic_relevance(self, author_id: str, topic_ids: list[str]) -> float:
        """True relevance of an author to a set of manuscript topics.

        Mean over manuscript topics of the author's best decayed
        expertise: exact topic match uses full expertise, a topic
        adjacent in the ontology counts at 60%, two hops at 30%.
        """
        author = self._world.authors[author_id]
        if not topic_ids:
            return 0.0
        ontology = self._world.ontology
        total = 0.0
        for topic_id in topic_ids:
            best = author.topic_expertise.get(topic_id, 0.0)
            if topic_id in ontology:
                for neighbor, __ in ontology.neighbors(topic_id):
                    expertise = author.topic_expertise.get(neighbor.topic_id, 0.0)
                    best = max(best, 0.6 * expertise)
                    for far, __r in ontology.neighbors(neighbor.topic_id):
                        far_expertise = author.topic_expertise.get(far.topic_id, 0.0)
                        best = max(best, 0.3 * far_expertise)
            total += best
        return total / len(topic_ids)

    def reviewer_utility(self, author_id: str, topic_ids: list[str]) -> float:
        """True usefulness of this scholar as a reviewer for these topics.

        Relevance gated by the hidden service qualities: a perfectly
        on-topic reviewer who never answers invitations (low
        responsiveness) or writes poor reviews is worth less — the exact
        trade-off the paper's introduction describes editors making.
        """
        author = self._world.authors[author_id]
        relevance = self.topic_relevance(author_id, topic_ids)
        service = 0.6 + 0.25 * author.responsiveness + 0.15 * author.review_quality
        return relevance * service

    def ideal_reviewers(
        self,
        topic_ids: list[str],
        manuscript_author_ids: list[str],
        k: int = 10,
        enforce_coi: bool = True,
    ) -> list[str]:
        """The oracle's top-``k`` reviewer ids for a manuscript.

        Excludes the manuscript's own authors, and (by default) anyone
        with a true conflict of interest.
        """
        excluded = set(manuscript_author_ids)
        candidates = []
        for author_id in self._world.authors:
            if author_id in excluded:
                continue
            if enforce_coi and self.has_coi(author_id, manuscript_author_ids):
                continue
            utility = self.reviewer_utility(author_id, topic_ids)
            if utility > 0:
                candidates.append((author_id, utility))
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        return [author_id for author_id, __ in candidates[:k]]

    # ------------------------------------------------------------------
    # Conflicts of interest
    # ------------------------------------------------------------------

    def has_coi(
        self,
        candidate_id: str,
        manuscript_author_ids: list[str],
        include_country: bool = False,
    ) -> bool:
        """True conflict of interest per the paper's two rules.

        Co-authorship with any manuscript author, or overlapping
        affiliation at the university level (same institution with
        intersecting periods).  ``include_country=True`` additionally
        applies the stricter country-level rule.
        """
        coauthors = self._world.coauthors.get(candidate_id, set())
        candidate = self._world.authors[candidate_id]
        for author_id in manuscript_author_ids:
            if author_id == candidate_id:
                return True
            if author_id in coauthors:
                return True
            author = self._world.authors.get(author_id)
            if author is None:
                continue
            if self._shares_affiliation(candidate, author, include_country):
                return True
        return False

    @staticmethod
    def _shares_affiliation(
        a: WorldAuthor, b: WorldAuthor, include_country: bool
    ) -> bool:
        for aff_a in a.affiliations:
            for aff_b in b.affiliations:
                if not aff_a.overlaps(aff_b):
                    continue
                if aff_a.institution == aff_b.institution:
                    return True
                if include_country and aff_a.country == aff_b.country:
                    return True
        return False

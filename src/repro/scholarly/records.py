"""Canonical record types of the scholarly domain.

These dataclasses are the shared vocabulary between the synthetic world
(:mod:`repro.world`), the six simulated source services and the core
pipeline.  Each simulated source serializes *its own partial view* of
these records into JSON payloads (see the per-source modules); the
extraction phase reassembles them into :class:`MergedProfile` objects.

All types are frozen: records flow through caches and stores, and
aliasing bugs in a recommendation pipeline are far harder to debug than
the occasional ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class VenueType(str, Enum):
    """Publication outlet kind — journals are MINARET's primary target."""

    JOURNAL = "journal"
    CONFERENCE = "conference"


class SourceName(str, Enum):
    """The six scholarly services the paper extracts from."""

    DBLP = "dblp"
    GOOGLE_SCHOLAR = "google_scholar"
    PUBLONS = "publons"
    ACM_DL = "acm_dl"
    ORCID = "orcid"
    RESEARCHER_ID = "researcher_id"


@dataclass(frozen=True)
class Affiliation:
    """An employment/association period at an institution.

    ``end_year`` of ``None`` means the affiliation is current.  Country
    is carried explicitly because the COI rules can operate at country
    granularity (paper §2.2).
    """

    institution: str
    country: str
    start_year: int
    end_year: int | None = None

    def overlaps(self, other: "Affiliation") -> bool:
        """Whether two affiliation periods intersect in time."""
        end_self = self.end_year if self.end_year is not None else 10_000
        end_other = other.end_year if other.end_year is not None else 10_000
        return self.start_year <= end_other and other.start_year <= end_self


@dataclass(frozen=True)
class Venue:
    """A journal or conference."""

    venue_id: str
    name: str
    venue_type: VenueType
    topic_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Publication:
    """A published paper as the world knows it (complete information)."""

    pub_id: str
    title: str
    year: int
    venue_id: str
    author_ids: tuple[str, ...]
    keywords: tuple[str, ...] = ()
    citation_count: int = 0
    abstract: str = ""


@dataclass(frozen=True)
class ReviewRecord:
    """One completed manuscript review (Publons-style).

    ``days_to_complete`` and ``on_time`` feed the responsiveness aspects
    the paper's introduction discusses (busy reviewers delay decisions).
    """

    review_id: str
    reviewer_id: str
    venue_id: str
    year: int
    days_to_complete: int
    on_time: bool


@dataclass(frozen=True)
class Metrics:
    """Citation metrics as reported by Google Scholar (§1)."""

    citations: int = 0
    h_index: int = 0
    i10_index: int = 0


@dataclass(frozen=True)
class SourceProfile:
    """What ONE source knows about one scholar.

    ``source_author_id`` is the source's own opaque identifier — part of
    what makes identity verification (paper §2.1) necessary is that no
    two services share an id space.
    """

    source: SourceName
    source_author_id: str
    name: str
    affiliations: tuple[Affiliation, ...] = ()
    interests: tuple[str, ...] = ()
    metrics: Metrics | None = None
    publication_ids: tuple[str, ...] = ()
    review_ids: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class SourcePage:
    """Everything one fetched profile page carries.

    The profile, the page's publication list (source-specific dicts)
    and, on DBLP, the co-author pids all come from the same response,
    so a caller that needs several of them pays for one request.
    """

    profile: SourceProfile
    publications: tuple[dict, ...] = ()
    coauthor_pids: tuple[str, ...] = ()


@dataclass(frozen=True)
class MergedProfile:
    """The cross-source merged view of one scholar.

    Produced by :class:`repro.scholarly.registry.SourceRegistry` from the
    per-source profiles that identity verification linked together.
    """

    canonical_name: str
    source_ids: tuple[tuple[SourceName, str], ...]
    affiliations: tuple[Affiliation, ...] = ()
    interests: tuple[str, ...] = ()
    metrics: Metrics = field(default_factory=Metrics)
    publication_ids: tuple[str, ...] = ()
    review_ids: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()

    def source_id(self, source: SourceName) -> str | None:
        """This scholar's id at ``source``, if the source covers them."""
        for name, source_id in self.source_ids:
            if name == source:
                return source_id
        return None


def compute_h_index(citation_counts: list[int]) -> int:
    """The h-index of a citation-count list.

    >>> compute_h_index([10, 8, 5, 4, 3])
    4
    """
    ranked = sorted(citation_counts, reverse=True)
    h = 0
    for rank, citations in enumerate(ranked, start=1):
        if citations >= rank:
            h = rank
        else:
            break
    return h


def compute_i10_index(citation_counts: list[int]) -> int:
    """Number of publications with at least 10 citations."""
    return sum(1 for c in citation_counts if c >= 10)

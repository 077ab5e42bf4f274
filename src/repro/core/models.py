"""Domain models of the recommendation pipeline.

Everything the three phases exchange is defined here: the manuscript the
editor submits, the verified author identities, the candidate reviewers
as they accumulate evidence through the pipeline, and the final scored
recommendation with its per-component breakdown (the paper's Figure 5
shows exactly this breakdown in the demo UI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ontology.expansion import ExpandedKeyword
from repro.scholarly.records import MergedProfile, SourceName


@dataclass(frozen=True)
class ManuscriptAuthor:
    """One author as entered on the submission form (paper Fig. 3).

    The editor provides names and *current* affiliations — that is all a
    submission system knows; everything else is extracted.
    """

    name: str
    affiliation: str = ""
    country: str = ""


@dataclass(frozen=True)
class Manuscript:
    """The submitted manuscript's basic information (paper §2).

    ``keywords`` is the author-supplied 3-5 keyword list that drives
    candidate retrieval; ``target_venue`` is the journal the editor
    handles (used by the outlet-familiarity ranking component).
    """

    title: str
    keywords: tuple[str, ...]
    authors: tuple[ManuscriptAuthor, ...]
    target_venue: str = ""
    abstract: str = ""

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("a manuscript needs at least one keyword")
        if not self.authors:
            raise ValueError("a manuscript needs at least one author")


@dataclass(frozen=True)
class IdentityMatch:
    """One possible profile for a manuscript author at one source."""

    source: SourceName
    source_author_id: str
    name: str
    evidence: str = ""
    confidence: float = 0.0


@dataclass(frozen=True)
class VerifiedAuthor:
    """A manuscript author after identity verification (paper Fig. 4).

    ``ambiguous`` records whether more than one plausible profile was
    found somewhere (and therefore a resolver had to decide);
    ``candidates_considered`` preserves the alternatives for audit.
    ``dblp_publications`` carries the dated publication list from the
    author's DBLP page — the track-record evidence COI screening needs
    (co-authorship recency, mentorship patterns).
    """

    submitted: ManuscriptAuthor
    profile: MergedProfile
    ambiguous: bool = False
    candidates_considered: tuple[IdentityMatch, ...] = ()
    dblp_publications: tuple[dict, ...] = ()


@dataclass
class Candidate:
    """A candidate reviewer accumulating evidence through the pipeline.

    Mutable by design: extraction fills the profile, filtering stamps the
    verdicts, ranking attaches scores.  ``candidate_id`` is the retrieval
    source's id (Scholar user or Publons reviewer id).
    """

    candidate_id: str
    name: str
    profile: MergedProfile
    matched_keywords: dict[str, float] = field(default_factory=dict)
    keyword_match_score: float = 0.0
    scholar_publications: list[dict] = field(default_factory=list)
    dblp_publications: list[dict] = field(default_factory=list)
    review_count: int = 0
    on_time_rate: float | None = None
    venues_reviewed: list[dict] = field(default_factory=list)

    def interests(self) -> tuple[str, ...]:
        """The merged interest keywords."""
        return self.profile.interests


@dataclass(frozen=True)
class CoiVerdict:
    """Outcome of conflict-of-interest screening for one candidate.

    ``reasons`` is human-readable, one entry per detected conflict —
    the demo UI surfaces these to the editor.
    """

    has_conflict: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class FilterDecision:
    """Why a candidate was kept or rejected by the filtering phase."""

    candidate_id: str
    kept: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-component ranking scores, each normalized to [0, 1] (§2.3).

    The five components of §2.3 plus ``timeliness`` — the abstract's
    "likelihood to accept and timely return his review" criterion,
    estimated from the Publons on-time rate (weight 0 by default).
    """

    topic_coverage: float = 0.0
    scientific_impact: float = 0.0
    recency: float = 0.0
    review_experience: float = 0.0
    outlet_familiarity: float = 0.0
    timeliness: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """The components as a name → score map."""
        return {
            "topic_coverage": self.topic_coverage,
            "scientific_impact": self.scientific_impact,
            "recency": self.recency,
            "review_experience": self.review_experience,
            "outlet_familiarity": self.outlet_familiarity,
            "timeliness": self.timeliness,
        }


@dataclass(frozen=True)
class ScoredCandidate:
    """A ranked reviewer recommendation (one row of the Fig. 5 table)."""

    candidate: Candidate
    total_score: float
    breakdown: ScoreBreakdown

    @property
    def name(self) -> str:
        """The candidate's display name."""
        return self.candidate.name


@dataclass
class PhaseReport:
    """Timing and accounting for one pipeline phase (Fig. 2 workflow)."""

    phase: str
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    requests: int = 0
    items_in: int = 0
    items_out: int = 0


@dataclass
class RecommendationResult:
    """Everything a pipeline run produced.

    ``ranked`` is the final recommendation list; the intermediate
    artefacts (verified authors, expansion, filter decisions, phase
    reports) are retained because the demo walks the audience through
    each phase and the experiments measure them.
    """

    manuscript: Manuscript
    verified_authors: list[VerifiedAuthor]
    expanded_keywords: list[ExpandedKeyword]
    candidates: list[Candidate]
    filter_decisions: list[FilterDecision]
    ranked: list[ScoredCandidate]
    phase_reports: list[PhaseReport]

    def top(self, k: int) -> list[ScoredCandidate]:
        """The ``k`` best-ranked reviewers."""
        return self.ranked[:k]

    def rejected(self) -> list[FilterDecision]:
        """Filter decisions that removed a candidate."""
        return [d for d in self.filter_decisions if not d.kept]

    def phase(self, name: str) -> PhaseReport:
        """Fetch one phase report by name; raises ``KeyError`` if absent."""
        for report in self.phase_reports:
            if report.phase == name:
                return report
        raise KeyError(f"no phase named {name!r}")

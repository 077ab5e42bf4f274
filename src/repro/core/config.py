"""Editor-facing configuration of the pipeline.

The paper stresses configurability throughout: the COI rules ("as
configured by the editor", §2.2), the keyword-score threshold, the
expertise constraints, the impact metric ("citations/H-index, as
configured by the user", §2.3), and the weights of the five ranking
components.  Every one of those knobs lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from repro.ontology.expansion import ExpansionConfig


class ImpactMetric(str, Enum):
    """Which metric the scientific-impact component uses (§2.3)."""

    CITATIONS = "citations"
    H_INDEX = "h_index"


class AffiliationCoiLevel(str, Enum):
    """Granularity of the shared-affiliation COI rule (§2.2)."""

    NONE = "none"
    UNIVERSITY = "university"
    COUNTRY = "country"


class AggregationMethod(str, Enum):
    """How the per-component scores fuse into the total.

    ``WEIGHTED_SUM`` is the paper's §2.3 formulation.  ``OWA`` (Ordered
    Weighted Averaging — the method of the paper's reference [4],
    Nguyen et al. 2018) weights components by their *rank within each
    candidate* rather than by identity: an editor can demand balanced
    all-rounders (weight the weakest components) or reward spikes
    (weight the strongest), independently of which component spikes.
    """

    WEIGHTED_SUM = "weighted_sum"
    OWA = "owa"


@dataclass(frozen=True)
class RankingWeights:
    """Weights of the ranking components (§2.3).

    Weights need not sum to one; they are normalized when applied, so an
    editor can think in relative importance.  All must be finite and
    non-negative, and at least one positive.

    ``timeliness`` is the abstract's "likelihood to accept and timely
    return his review" criterion, estimated from the candidate's Publons
    on-time rate.  Its default weight is 0 — the §2.3 component list is
    the paper's default — but turnaround-sensitive editors can raise it
    (see the EXP-TURNAROUND experiment for what that buys).
    """

    topic_coverage: float = 0.35
    scientific_impact: float = 0.20
    recency: float = 0.20
    review_experience: float = 0.15
    outlet_familiarity: float = 0.10
    timeliness: float = 0.0

    def __post_init__(self):
        weights = self.as_dict()
        for name, value in weights.items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"ranking weight {name} must be finite and >= 0, got {value!r}"
                )
        if sum(weights.values()) == 0:
            raise ValueError("at least one ranking weight must be positive")

    def as_dict(self) -> dict[str, float]:
        """Component name → weight."""
        return {
            "topic_coverage": self.topic_coverage,
            "scientific_impact": self.scientific_impact,
            "recency": self.recency,
            "review_experience": self.review_experience,
            "outlet_familiarity": self.outlet_familiarity,
            "timeliness": self.timeliness,
        }

    def normalized(self) -> dict[str, float]:
        """Weights scaled to sum to 1."""
        raw = self.as_dict()
        total = sum(raw.values())
        return {name: weight / total for name, weight in raw.items()}

    def without(self, component: str) -> "RankingWeights":
        """A copy with one component's weight zeroed (ablation helper)."""
        if component not in self.as_dict():
            raise KeyError(f"unknown ranking component {component!r}")
        return replace(self, **{component: 0.0})


@dataclass(frozen=True)
class CoiConfig:
    """Conflict-of-interest rules (§2.2).

    Attributes
    ----------
    check_coauthorship:
        Reject candidates who share a publication with any manuscript
        author.
    coauthorship_lookback_years:
        Only co-authorships at most this many years old count (a
        non-negative integer; ``None`` = ever).  Many journals use 3-5
        year windows.
    affiliation_level:
        ``UNIVERSITY`` rejects shared institutions, ``COUNTRY``
        additionally rejects shared countries, ``NONE`` disables the
        affiliation rule.
    check_mentorship:
        Also flag *likely advisor/advisee relationships* — the COI most
        journal policies treat as permanent, which a recency-windowed
        co-authorship rule would forgive.  Detected heuristically: a
        shared publication within ``mentorship_window_years`` of the
        junior party's first publication, where the senior party's
        record starts at least ``mentorship_seniority_gap`` years
        earlier.
    """

    check_coauthorship: bool = True
    coauthorship_lookback_years: int | None = None
    affiliation_level: AffiliationCoiLevel = AffiliationCoiLevel.UNIVERSITY
    check_mentorship: bool = False
    mentorship_window_years: int = 3
    mentorship_seniority_gap: int = 7

    def __post_init__(self):
        lookback = self.coauthorship_lookback_years
        if lookback is not None and (
            isinstance(lookback, bool) or not isinstance(lookback, int) or lookback < 0
        ):
            raise ValueError(
                "coauthorship_lookback_years must be a non-negative integer "
                f"or None, got {lookback!r}"
            )


@dataclass(frozen=True)
class ExpertiseConstraints:
    """Editor-defined candidate constraints (§2.2's third filter).

    Each bound is optional; ``None`` disables that side, and any other
    value must be a finite number.  A range whose minimum exceeds its
    maximum admits no candidate, so it is rejected; equal bounds are a
    legal one-value range.  The filter phase checks every active bound
    against the candidate's merged metrics and review history.
    """

    min_citations: int | None = None
    max_citations: int | None = None
    min_h_index: int | None = None
    max_h_index: int | None = None
    min_reviews: int | None = None
    max_reviews: int | None = None

    def __post_init__(self):
        for spec in fields(self):
            bound = getattr(self, spec.name)
            if bound is not None and (
                isinstance(bound, bool)
                or not isinstance(bound, (int, float))
                or not math.isfinite(bound)
            ):
                raise ValueError(
                    f"{spec.name} must be a finite number or None, got {bound!r}"
                )
        for low_name, high_name in (
            ("min_citations", "max_citations"),
            ("min_h_index", "max_h_index"),
            ("min_reviews", "max_reviews"),
        ):
            low, high = getattr(self, low_name), getattr(self, high_name)
            if low is not None and high is not None and low > high:
                raise ValueError(
                    f"{low_name} ({low!r}) must not exceed {high_name} ({high!r})"
                )

    def is_trivial(self) -> bool:
        """Whether no constraint is active."""
        return all(getattr(self, spec.name) is None for spec in fields(self))


@dataclass(frozen=True)
class FilterConfig:
    """The full filtering phase configuration (§2.2).

    ``min_keyword_score`` is the threshold on the expansion similarity
    ``sc`` of the best keyword match; ``pc_members`` enables the paper's
    conference mode (§3): when non-empty, only candidates whose names
    appear in the programme committee are retained.
    """

    coi: CoiConfig = field(default_factory=CoiConfig)
    min_keyword_score: float = 0.5
    constraints: ExpertiseConstraints = field(default_factory=ExpertiseConstraints)
    pc_members: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.min_keyword_score <= 1.0:
            raise ValueError(
                f"min_keyword_score must be in [0, 1], got {self.min_keyword_score}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level configuration of a recommendation run.

    Attributes
    ----------
    expansion:
        Keyword-expansion tunables (depth, threshold, decays).
    filters:
        The filtering phase configuration.
    weights:
        The ranking component weights.
    impact_metric:
        Citations or H-index for the impact component.
    aggregation:
        Score-fusion method: the §2.3 weighted sum (default) or OWA
        (reference [4]'s approach; see :class:`AggregationMethod`).
    owa_weights:
        OWA position weights, largest-component first; must be finite
        and non-negative with a positive sum and at most as many entries as
        there are components.  ``None`` under OWA means uniform (plain
        mean).  Ignored under ``WEIGHTED_SUM``.
    max_candidates:
        Cap on candidates whose full profiles are extracted (the
        retrieval step keeps the best keyword-matched ones).  Bounds the
        on-the-fly request volume.
    per_keyword_retrieval_limit:
        How many scholars each interest query may return.
    recency_half_life_years:
        The recency component halves for every this-many years since a
        matching publication.
    use_all_sources:
        Also consult ACM DL and ResearcherID during candidate profile
        extraction (more requests, better corroboration).
    current_year:
        "Today" for recency computations.
    workers:
        Worker-pool size for the extraction phase's fan-out (per-keyword
        retrieval and per-candidate profile assembly).  ``1`` (the
        default) runs inline with no pool; any value produces
        bit-identical recommendation output — parallelism only buys
        wall-clock time (see :mod:`repro.concurrency`).
    warm_cache:
        Route the pipeline through the shared warm-path retrieval plane
        (:mod:`repro.retrieval`): interest queries, profile assemblies,
        Publons summaries, each manuscript author's verification and
        each typed target outlet's resolution are cached across
        requests and coalesced when issued concurrently.  Everything is
        invalidated when the world re-indexes
        (``ScholarlyHub.refresh_services`` bumps the plane's epoch) and,
        when ``warm_cache_ttl`` is set, when an entry expires.  Errors,
        a verification where a resolver chose among DBLP homonyms and
        one that lost a secondary source through every retry are never
        stored.  ``False`` (the default) is the paper's pure on-the-fly
        mode, which verifies and resolves live on every run.  Rankings
        are bit-identical either way — only request volume changes.
    warm_cache_ttl:
        Profile-store entry lifetime in *virtual* seconds; ``None``
        (default) keeps entries until the freshness epoch bumps or LRU
        evicts them.
    warm_cache_capacity:
        Profile-store LRU bound.
    top_k:
        When set, only the best ``top_k`` entries of the ranking are
        produced — exactly the first ``top_k`` of the full ranking
        (``None``, the default, ranks everyone).  Under the weighted-sum
        aggregation the scoring plane uses it to skip the expensive
        recency computation for candidates that provably cannot enter
        the top-k.
    """

    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    weights: RankingWeights = field(default_factory=RankingWeights)
    aggregation: AggregationMethod = AggregationMethod.WEIGHTED_SUM
    owa_weights: tuple[float, ...] | None = None
    impact_metric: ImpactMetric = ImpactMetric.H_INDEX
    max_candidates: int = 50
    per_keyword_retrieval_limit: int = 50
    recency_half_life_years: float = 3.0
    use_all_sources: bool = False
    current_year: int = 2019
    workers: int = 1
    warm_cache: bool = False
    warm_cache_ttl: float | None = None
    warm_cache_capacity: int = 8192
    top_k: int | None = None

    def __post_init__(self):
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1 or None, got {self.top_k}")
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.per_keyword_retrieval_limit < 1:
            raise ValueError("per_keyword_retrieval_limit must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.recency_half_life_years <= 0:
            raise ValueError("recency_half_life_years must be > 0")
        if self.warm_cache_ttl is not None and self.warm_cache_ttl < 0:
            raise ValueError("warm_cache_ttl must be >= 0 or None")
        if self.warm_cache_capacity < 1:
            raise ValueError("warm_cache_capacity must be >= 1")
        if self.owa_weights is not None:
            if not all(math.isfinite(w) and w >= 0 for w in self.owa_weights):
                raise ValueError(
                    f"owa_weights must be finite and >= 0, got {self.owa_weights!r}"
                )
            if sum(self.owa_weights) == 0:
                raise ValueError("owa_weights must have a positive sum")

"""MINARET core: the reviewer-recommendation framework itself.

The paper's contribution — the three-phase workflow of Figure 2:

1. **Information extraction** (:mod:`~repro.core.identity`,
   :mod:`~repro.core.extraction`): author identity verification,
   track-record extraction, semantic keyword expansion, candidate
   retrieval from the interest indexes, cross-source profile assembly.
2. **Filtering** (:mod:`~repro.core.coi`, :mod:`~repro.core.filtering`):
   conflict-of-interest screening, keyword-score thresholding,
   editor-defined expertise constraints, optional PC restriction.
3. **Ranking** (:mod:`~repro.core.ranking`): five weighted components
   fused into a configurable total score.

:class:`~repro.core.pipeline.Minaret` orchestrates all of it.
"""

from repro.core.coi import CoiDetector, UNDATED_SPAN_YEARS
from repro.core.config import (
    AffiliationCoiLevel,
    AggregationMethod,
    CoiConfig,
    ExpertiseConstraints,
    FilterConfig,
    ImpactMetric,
    PipelineConfig,
    RankingWeights,
)
from repro.core.errors import (
    AmbiguousIdentityError,
    IdentityVerificationError,
    MinaretError,
    SourceUnavailableError,
)
from repro.core.explain import explain_candidate
from repro.core.extraction import CandidateExtractor
from repro.core.filtering import FilterPhase
from repro.core.identity import (
    AffiliationEvidenceResolver,
    FirstMatchResolver,
    IdentityResolver,
    IdentityVerifier,
    ProfileLinker,
)
from repro.core.models import (
    Candidate,
    CoiVerdict,
    FilterDecision,
    IdentityMatch,
    Manuscript,
    ManuscriptAuthor,
    PhaseReport,
    RecommendationResult,
    ScoreBreakdown,
    ScoredCandidate,
    VerifiedAuthor,
)
from repro.core.pipeline import Minaret
from repro.core.ranking import Ranker

__all__ = [
    "AffiliationCoiLevel",
    "AggregationMethod",
    "AffiliationEvidenceResolver",
    "AmbiguousIdentityError",
    "Candidate",
    "CandidateExtractor",
    "CoiConfig",
    "CoiDetector",
    "CoiVerdict",
    "ExpertiseConstraints",
    "FilterConfig",
    "FilterDecision",
    "FilterPhase",
    "FirstMatchResolver",
    "IdentityMatch",
    "IdentityResolver",
    "IdentityVerificationError",
    "IdentityVerifier",
    "ImpactMetric",
    "Manuscript",
    "ManuscriptAuthor",
    "Minaret",
    "MinaretError",
    "PhaseReport",
    "PipelineConfig",
    "ProfileLinker",
    "RankingWeights",
    "Ranker",
    "RecommendationResult",
    "ScoreBreakdown",
    "ScoredCandidate",
    "SourceUnavailableError",
    "UNDATED_SPAN_YEARS",
    "VerifiedAuthor",
    "explain_candidate",
]

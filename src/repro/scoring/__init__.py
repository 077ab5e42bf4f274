"""The scoring compute plane: the only production filter→rank path.

With the IO bottlenecks removed (parallel extraction, warm-path
retrieval), the dominant cost at batch scale is CPU in the filter→rank
tail.  This package makes that tail incremental and batch-amortized.
:class:`~repro.core.filtering.FilterPhase` and
:class:`~repro.core.ranking.Ranker` always run on it, and it stays
**bit-identical** to the reference oracles
:class:`~repro.core.coi.CoiDetector` and
:class:`~repro.core.ranking.NaiveRanker`, which only tests and the
EXP-SCORE benchmark run:

:mod:`repro.scoring.features`
    :class:`CandidateFeatures` — per-candidate precompiled features
    (normalized interest set, per-publication keyword/title token sets,
    venue-normalized review counts, log-compressed impact, publication-id
    frozenset, concretized affiliation intervals) built once and cached
    in a :class:`FeatureStore` keyed by profile identity + the retrieval
    plane's freshness epoch.
:mod:`repro.scoring.query`
    :class:`ManuscriptQuery` — the compiled per-manuscript query object
    (seed-grouped expansions, normalized expansion weight map, normalized
    target venue) built once instead of inside every component method.
:mod:`repro.scoring.coi`
    :class:`CoiScreen` — indexed conflict-of-interest screening: a
    pub-id → author posting map, institution/country → affiliation
    postings and precompiled track records turn the naive
    O(candidates × authors × affiliations) pairwise loops into hash
    lookups + interval sweeps, with verdicts (flags *and* reason
    strings) identical to :class:`repro.core.coi.CoiDetector`.
:mod:`repro.scoring.engine`
    The ranking engine: feature-based component scoring plus heap-based
    top-k selection with per-component upper bounds, so the expensive
    per-publication recency loop is skipped for candidates that cannot
    enter the current top-k.  Full-ranking behavior is unchanged when
    ``top_k`` is ``None``.

Everything is instrumented through :mod:`repro.obs`: features
built/reused counters, a prune-rate gauge and scoring spans, all
visible on ``GET /api/v1/metrics``.
"""

from repro.scoring.aggregate import owa_aggregate, weighted_total
from repro.scoring.coi import CoiScreen
from repro.scoring.engine import rank_with_plane
from repro.scoring.features import (
    CandidateFeatures,
    FeatureStore,
    ScoringContext,
    build_candidate_features,
)
from repro.scoring.query import ManuscriptQuery, group_expansions_by_seed
from repro.scoring.topk import select_top_k

__all__ = [
    "CandidateFeatures",
    "CoiScreen",
    "FeatureStore",
    "ManuscriptQuery",
    "ScoringContext",
    "build_candidate_features",
    "group_expansions_by_seed",
    "owa_aggregate",
    "rank_with_plane",
    "select_top_k",
    "weighted_total",
]

"""Baseline recommenders and evaluation machinery.

The paper demonstrates MINARET qualitatively; to *measure* its claims we
compare against the baselines its related-work section implies:

- **random** — any reviewer from the same retrieval pool;
- **citation-only** — rank purely by scientific impact (the "just invite
  the most cited person" heuristic the introduction warns about);
- **no-expansion** — raw keyword matching without semantic expansion
  (TPMS-style lexical matching);
- **conference mode** — MINARET restricted to a programme committee
  (paper §3).

All baselines are *configurations or thin wrappers of the same
pipeline*, so they see exactly the same observable world through the
same simulated services — differences in quality are attributable to
the algorithmic choice alone.

:mod:`repro.baselines.metrics` provides precision@k, recall@k, nDCG@k
and Kendall's tau; :mod:`repro.baselines.evaluation` resolves
recommended candidates back to world author ids and scores runs against
the :class:`~repro.world.model.GroundTruthOracle`.
"""

from repro.baselines.metrics import (
    kendall_tau,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.baselines.recommenders import (
    BaselineResult,
    CitationOnlyRecommender,
    MinaretRecommender,
    NoExpansionRecommender,
    RandomRecommender,
    Recommender,
)
from repro.baselines.evaluation import CandidateResolver, evaluate_recommendation
from repro.baselines.stats import (
    MeanWithCi,
    bootstrap_mean_ci,
    paired_bootstrap_pvalue,
)

__all__ = [
    "MeanWithCi",
    "bootstrap_mean_ci",
    "paired_bootstrap_pvalue",
    "BaselineResult",
    "CandidateResolver",
    "CitationOnlyRecommender",
    "MinaretRecommender",
    "NoExpansionRecommender",
    "RandomRecommender",
    "Recommender",
    "evaluate_recommendation",
    "kendall_tau",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
]

"""Assignment objectives beyond raw score: load balance and set coverage.

Per-manuscript suitability alone produces assignments that swamp the
few best-known reviewers and hand papers three near-identical experts.
The conference workload (RevASIDE's framing) wants two more terms:

``balance``
    Penalize uneven reviewer loads.  The penalty is the sum of squared
    loads — convex, so for a fixed number of filled slots it is minimal
    exactly when loads are as equal as the instance allows.  Convexity
    also means the flow solver can optimize it exactly by pricing a
    reviewer's *j*-th paper at marginal cost ``2j - 1``.

``coverage``
    Reward reviewer *sets* that jointly cover a paper's facets (topic
    ids, in the conference scenario).  Coverage of a set is submodular —
    the second expert on the same facet adds nothing — so it cannot be
    expressed per (paper, reviewer) edge; the greedy/swap solver
    optimizes it through set-level deltas, the flow solver ignores it
    (and the exactness tests only compare the two where coverage is
    off).

The combined objective of an assignment is::

    score_weight    * sum of assigned pair scores
  + coverage_weight * sum over papers of covered-facet fraction
  - balance_weight  * sum over reviewers of load**2

Slot *fill* is not part of the scalar objective: every solver treats
the number of filled slots lexicographically above it (an assignment
that reviews more papers always wins), matching the flow formulation's
dominating per-slot reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.assignment.models import Assignment, AssignmentProblem

#: Minimum improvement a local-search move must deliver — guards against
#: float-noise cycling in the swap loop.
EPSILON = 1e-9


@dataclass(frozen=True)
class AssignmentObjective:
    """Weights of the three objective terms.

    The default is the pure-score objective every pre-conference solver
    optimized, so existing call sites are unaffected.
    """

    score_weight: float = 1.0
    balance_weight: float = 0.0
    coverage_weight: float = 0.0

    def __post_init__(self):
        for name in ("score_weight", "balance_weight", "coverage_weight"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def paper_facet_universe(
    problem: AssignmentProblem, paper_id: str
) -> frozenset[str]:
    """Every facet any candidate could contribute to ``paper_id``.

    The coverage term normalizes by this universe so a paper whose
    candidates jointly cover 4 facets can reach coverage 1.0 even if the
    manuscript names 6.
    """
    if problem.facets is None:
        return frozenset()
    per_reviewer = problem.facets.get(paper_id, {})
    universe: set[str] = set()
    for facets in per_reviewer.values():
        universe.update(facets)
    return frozenset(universe)


def coverage_fraction(
    problem: AssignmentProblem, paper_id: str, reviewers: list[str]
) -> float:
    """Fraction of the paper's facet universe the reviewer set covers."""
    universe = paper_facet_universe(problem, paper_id)
    if not universe:
        return 0.0
    per_reviewer = problem.facets.get(paper_id, {}) if problem.facets else {}
    covered: set[str] = set()
    for reviewer in reviewers:
        covered.update(per_reviewer.get(reviewer, frozenset()))
    return len(covered & universe) / len(universe)


def objective_value(
    problem: AssignmentProblem,
    assignment: Assignment,
    objective: AssignmentObjective | None = None,
) -> float:
    """The scalar objective of ``assignment`` (fill handled separately)."""
    objective = objective or AssignmentObjective()
    score = 0.0
    coverage = 0.0
    for paper_id in problem.papers():
        reviewers = assignment.reviewers_of(paper_id)
        candidates = problem.scores[paper_id]
        for reviewer in reviewers:
            score += candidates.get(reviewer, 0.0)
        if objective.coverage_weight > 0.0:
            coverage += coverage_fraction(problem, paper_id, reviewers)
    balance = 0.0
    if objective.balance_weight > 0.0:
        balance = sum(load * load for load in assignment.loads().values())
    return (
        objective.score_weight * score
        + objective.coverage_weight * coverage
        - objective.balance_weight * balance
    )

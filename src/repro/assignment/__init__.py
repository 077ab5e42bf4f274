"""Batch and whole-conference paper-reviewer assignment (paper §3, extension).

The demo paper notes MINARET "can be also integrated with conference
management systems to automate the paper-reviewer assignment" — the
setting of its references [2, 3, 8] (topic-based reviewer assignment).
Per-manuscript recommendation is not enough there: assignments across a
whole batch must respect *load* (no reviewer swamped) and *coverage*
(every paper gets its quota), which couples the manuscripts together.

This package turns a batch of MINARET recommendation results into an
:class:`~repro.assignment.models.AssignmentProblem` and solves it:

- :func:`~repro.assignment.solvers.greedy_assignment` — highest score
  first, respecting caps (the fast heuristic);
- :func:`~repro.assignment.solvers.greedy_swap_assignment` — greedy
  seed plus deterministic local search (fill / augment / replace /
  swap moves), the solver that also optimizes set coverage;
- :func:`~repro.assignment.solvers.min_cost_flow_assignment` — exact
  maximum-fill, maximum-objective assignment via min-cost flow
  (successive shortest paths), with convex load-balance pricing;
- :func:`~repro.assignment.solvers.random_assignment` — the floor.

:func:`~repro.assignment.conference.assign_conference` is the one
entry point, from an ad-hoc batch to a whole program — hundreds of
papers against one PC pool — with per-reviewer capacity, typed
per-paper failure reporting under a degraded scholarly web, and
planted-ground-truth quality metrics via :mod:`repro.world.conference`.
Its per-paper runs fan out through
:func:`~repro.assignment.batch.recommend_batch`, the one batch path.

Quality is reported as total score, per-paper minimum (fairness), load
distribution, and — against planted scenarios — planted recall,
precision@set and load spread.
"""

from repro.assignment.models import (
    Assignment,
    AssignmentProblem,
    AssignmentQuality,
    InfeasibleAssignmentError,
    assess_assignment,
    require_full_assignment,
    require_set_sizes,
)
from repro.assignment.batch import (
    SOLVERS,
    PaperFailure,
    recommend_batch,
    solver_by_name,
)
from repro.assignment.builder import problem_from_results
from repro.assignment.conference import (
    ConferenceAssignment,
    assign_conference,
    check_assignment_inputs,
    scenario_metrics,
)
from repro.assignment.objective import (
    AssignmentObjective,
    coverage_fraction,
    objective_value,
)
from repro.assignment.solvers import (
    greedy_assignment,
    greedy_swap_assignment,
    min_cost_flow_assignment,
    optimal_assignment,
    random_assignment,
)

__all__ = [
    "SOLVERS",
    "Assignment",
    "AssignmentObjective",
    "AssignmentProblem",
    "AssignmentQuality",
    "ConferenceAssignment",
    "InfeasibleAssignmentError",
    "PaperFailure",
    "assess_assignment",
    "assign_conference",
    "check_assignment_inputs",
    "coverage_fraction",
    "greedy_assignment",
    "greedy_swap_assignment",
    "min_cost_flow_assignment",
    "objective_value",
    "optimal_assignment",
    "problem_from_results",
    "random_assignment",
    "recommend_batch",
    "require_full_assignment",
    "require_set_sizes",
    "scenario_metrics",
    "solver_by_name",
]

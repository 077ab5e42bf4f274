"""Whole-conference assignment over the batch engine.

:func:`assign_conference` is the one assignment entry point, for an
ad-hoc batch and a whole conference alike: run the full MINARET
pipeline for every submission through
:func:`~repro.assignment.batch.recommend_batch` (so results are
bit-identical at any worker count), assemble the cross-paper score
matrix — every row already COI-screened by the pipeline's indexed
:class:`~repro.scoring.coi.CoiScreen` — and hand it to a global solver
under capacity, set-size, load-balance and set-coverage objectives.

It is built for degraded worlds too: with ``on_error="skip"`` a
submission whose pipeline run raises a typed
:class:`~repro.core.errors.MinaretError` becomes a
:class:`~repro.assignment.batch.PaperFailure` in the result instead of
sinking the whole program — the solver then assigns the papers that
survived.  Because the simulated web's fault draws are content-keyed,
which papers fail is itself deterministic across worker counts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.assignment.batch import PaperFailure, require_on_error, solver_by_name
from repro.assignment.builder import problem_from_results
from repro.assignment.models import (
    Assignment,
    AssignmentProblem,
    AssignmentQuality,
    assess_assignment,
    require_full_assignment,
    require_set_sizes,
)
from repro.assignment.objective import AssignmentObjective, objective_value
from repro.concurrency import Executor
from repro.core.models import Manuscript, RecommendationResult
from repro.obs import get_obs


@dataclass(frozen=True)
class ConferenceAssignment:
    """Everything a conference-mode run produced.

    ``results`` holds the successful per-paper pipeline runs;
    ``failures`` the papers that degraded (empty unless
    ``on_error="skip"`` and the web actually faulted).  The assignment
    covers exactly the successful papers.
    """

    results: tuple[tuple[str, RecommendationResult], ...]
    failures: tuple[PaperFailure, ...]
    problem: AssignmentProblem
    assignment: Assignment
    quality: AssignmentQuality
    reviewer_names: dict[str, str]
    objective: AssignmentObjective
    objective_value: float


def check_assignment_inputs(
    entries: Sequence[tuple[str, Manuscript]], solver: str, on_error: str, **sizes: int
):
    """Refuse with ``ValueError`` what :func:`assign_conference` cannot run; return the solver."""
    solve = solver_by_name(solver)
    require_on_error(on_error)
    require_set_sizes(**sizes)
    seen: set[str] = set()
    for paper_id, __ in entries:
        if paper_id in seen:
            raise ValueError(f"duplicate paper id {paper_id!r}")
        seen.add(paper_id)
    return solve


def assign_conference(
    minaret,
    entries: Sequence[tuple[str, Manuscript]],
    reviewers_per_paper: int = 3,
    capacity: int = 2,
    top_k: int | None = None,
    solver: str = "flow",
    objective: AssignmentObjective | None = None,
    executor: Executor | None = None,
    workers: int = 1,
    on_error: str = "raise",
    require_full: bool = False,
    candidate_filter=None,
) -> ConferenceAssignment:
    """Recommend for a whole program and solve the global assignment.

    ``reviewers_per_paper`` / ``capacity``
        Per-paper set size and per-reviewer paper cap (the CLI's
        ``--reviewers-per-paper`` and ``--capacity``); both at least 1.
    ``top_k``
        Restrict each paper's row to its ``top_k`` ranked reviewers.
    ``objective``
        Load-balance / set-coverage weights on top of raw score.
    ``on_error``
        ``"raise"`` propagates the first pipeline failure (the batch
        contract); ``"skip"`` degrades gracefully — failed papers are
        reported as :class:`~repro.assignment.batch.PaperFailure` and
        excluded from the solve.
    ``require_full``
        Demand every (successful) paper gets its exact quota, raising
        :class:`~repro.assignment.models.InfeasibleAssignmentError`
        otherwise.
    ``candidate_filter``
        ``candidate_id -> bool`` predicate restricting assignable
        reviewers — conference mode's "must be on the PC" rule.

    The inputs are checked by :func:`check_assignment_inputs` before
    any pipeline runs, so a malformed request costs no requests.
    """
    # Imported per call, not at module load: the benchmark harness
    # times the batch fan-out by wrapping this module attribute.
    from repro.assignment.batch import recommend_batch

    solve = check_assignment_inputs(
        entries, solver, on_error, reviewers_per_paper=reviewers_per_paper, capacity=capacity
    )
    objective = objective or AssignmentObjective()
    obs = get_obs()
    outcomes = recommend_batch(
        minaret, entries, executor=executor, workers=workers, on_error=on_error
    )
    results = [
        (paper_id, outcome)
        for paper_id, outcome in outcomes
        if not isinstance(outcome, PaperFailure)
    ]
    failures = [
        outcome for __, outcome in outcomes if isinstance(outcome, PaperFailure)
    ]
    names: dict[str, str] = {}
    for __, result in results:
        for scored in result.ranked:
            names[scored.candidate.candidate_id] = scored.name
    problem = problem_from_results(
        results,
        reviewers_per_paper=reviewers_per_paper,
        max_load=capacity,
        top_k=top_k,
        candidate_filter=candidate_filter,
    )
    with obs.span(
        "conference.solve",
        solver=solver,
        papers=len(problem.papers()),
        reviewers=len(problem.reviewers()),
        capacity=capacity,
    ) as span:
        assignment = solve(problem, objective)
        if require_full:
            require_full_assignment(problem, assignment)
        quality = assess_assignment(problem, assignment)
        value = objective_value(problem, assignment, objective)
        span.set_label("unfilled", quality.unfilled_slots)
        span.set_label("objective", round(value, 6))
    obs.gauge("conference_unfilled_slots", float(quality.unfilled_slots))
    return ConferenceAssignment(
        results=tuple(results),
        failures=tuple(failures),
        problem=problem,
        assignment=assignment,
        quality=quality,
        reviewer_names=names,
        objective=objective,
        objective_value=round(value, 6),
    )


def scenario_metrics(scenario, assignment: Assignment, resolve=None) -> dict:
    """Planted-truth quality of an assignment, as a flat dict.

    ``resolve`` maps assignment-side reviewer ids to world author ids
    when the assignment came out of the pipeline (source-level ids);
    the planted-matrix path passes nothing.
    """
    from repro.world.conference import load_spread, planted_recall, precision_at_set

    if resolve is not None:
        assignment = Assignment(
            by_paper={
                paper_id: sorted(
                    {resolve(r) for r in reviewers} - {None}
                )
                for paper_id, reviewers in assignment.by_paper.items()
            }
        )
    return {
        "planted_recall": round(planted_recall(scenario, assignment), 6),
        "precision_at_set": round(precision_at_set(scenario, assignment), 6),
        "load_spread": load_spread(assignment, scenario.pool),
    }

"""Problem and solution types for batch reviewer assignment."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import MinaretError


class InfeasibleAssignmentError(MinaretError):
    """The instance cannot give every paper its full reviewer quota.

    Raised by :func:`require_full_assignment` (and the conference entry
    points that demand completeness) instead of silently returning an
    under-filled assignment.  ``unfilled`` maps each short paper to how
    many slots it is missing.
    """

    def __init__(self, unfilled: dict[str, int], detail: str = ""):
        short = ", ".join(
            f"{paper}({count})" for paper, count in sorted(unfilled.items())
        )
        message = f"assignment infeasible: {sum(unfilled.values())} unfilled slot(s) on {short}"
        if detail:
            message = f"{message} — {detail}"
        super().__init__(message)
        self.unfilled = dict(unfilled)


def require_set_sizes(**sizes: int) -> None:
    """Refuse a reviewer quota or paper cap below 1, named as the caller names it."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


@dataclass(frozen=True)
class AssignmentProblem:
    """A batch assignment instance.

    Attributes
    ----------
    scores:
        ``paper_id -> {reviewer_id: suitability score}``.  Only listed
        pairs are assignable (a missing pair means the reviewer was
        filtered out for that paper — COI, constraints, or simply never
        retrieved).
    reviewers_per_paper:
        How many distinct reviewers each paper needs.
    max_load:
        Maximum papers any one reviewer may take.
    facets:
        Optional ``paper_id -> {reviewer_id: facet labels}`` — what each
        candidate would contribute to the paper's reviewer set (topic
        ids in the conference scenario).  Consumed by the set-coverage
        objective term; solvers ignore it otherwise.
    """

    scores: dict[str, dict[str, float]]
    reviewers_per_paper: int = 3
    max_load: int = 2
    facets: dict[str, dict[str, frozenset[str]]] | None = None

    def __post_init__(self):
        require_set_sizes(reviewers_per_paper=self.reviewers_per_paper, max_load=self.max_load)
        for paper_id, candidates in self.scores.items():
            for reviewer_id, score in candidates.items():
                if score < 0:
                    raise ValueError(
                        f"negative score for ({paper_id}, {reviewer_id})"
                    )

    def papers(self) -> list[str]:
        """Paper ids, sorted."""
        return sorted(self.scores)

    def reviewers(self) -> list[str]:
        """All reviewer ids appearing anywhere, sorted."""
        return sorted({r for c in self.scores.values() for r in c})

    def demand(self) -> int:
        """Total review slots required."""
        return len(self.scores) * self.reviewers_per_paper

    def capacity(self) -> int:
        """Total review slots available under the load cap."""
        return len(self.reviewers()) * self.max_load


@dataclass
class Assignment:
    """A (possibly partial) solution: ``paper_id -> [reviewer_id, ...]``."""

    by_paper: dict[str, list[str]] = field(default_factory=dict)

    def reviewers_of(self, paper_id: str) -> list[str]:
        """The reviewers assigned to one paper."""
        return list(self.by_paper.get(paper_id, []))

    def loads(self) -> Counter:
        """Papers per reviewer."""
        return Counter(
            reviewer
            for reviewers in self.by_paper.values()
            for reviewer in reviewers
        )

    def total_assignments(self) -> int:
        """Number of (paper, reviewer) pairs assigned."""
        return sum(len(reviewers) for reviewers in self.by_paper.values())


@dataclass(frozen=True)
class AssignmentQuality:
    """Aggregate quality of one assignment against its problem."""

    total_score: float
    mean_paper_score: float
    min_paper_score: float
    unfilled_slots: int
    max_load: int
    load_stddev: float


def assess_assignment(
    problem: AssignmentProblem, assignment: Assignment
) -> AssignmentQuality:
    """Validate and score an assignment.

    Raises ``ValueError`` on *rule violations* (duplicate reviewer on a
    paper, load cap exceeded, unknown pair) — a solver bug, not a
    quality matter.  Under-filled quotas are legal (they may be
    unavoidable) and reported as ``unfilled_slots``.
    """
    loads = assignment.loads()
    for reviewer, load in loads.items():
        if load > problem.max_load:
            raise ValueError(f"reviewer {reviewer!r} overloaded: {load}")
    paper_scores = []
    total = 0.0
    unfilled = 0
    for paper_id in problem.papers():
        reviewers = assignment.reviewers_of(paper_id)
        if len(set(reviewers)) != len(reviewers):
            raise ValueError(f"duplicate reviewer on paper {paper_id!r}")
        if len(reviewers) > problem.reviewers_per_paper:
            raise ValueError(f"paper {paper_id!r} over quota")
        candidates = problem.scores[paper_id]
        score = 0.0
        for reviewer in reviewers:
            if reviewer not in candidates:
                raise ValueError(
                    f"reviewer {reviewer!r} not assignable to {paper_id!r}"
                )
            score += candidates[reviewer]
        unfilled += problem.reviewers_per_paper - len(reviewers)
        paper_scores.append(score)
        total += score
    load_values = list(loads.values()) or [0]
    return AssignmentQuality(
        total_score=round(total, 6),
        mean_paper_score=round(total / len(paper_scores), 6) if paper_scores else 0.0,
        min_paper_score=round(min(paper_scores), 6) if paper_scores else 0.0,
        unfilled_slots=unfilled,
        max_load=max(load_values),
        load_stddev=round(
            statistics.pstdev(load_values) if len(load_values) > 1 else 0.0, 6
        ),
    )


def require_full_assignment(
    problem: AssignmentProblem, assignment: Assignment
) -> Assignment:
    """Pass ``assignment`` through, or raise if any paper is under quota.

    The conference contract: every paper gets *exactly*
    ``reviewers_per_paper`` reviewers or the caller sees a typed
    :class:`InfeasibleAssignmentError` — never a silently short set.
    """
    unfilled = {
        paper_id: problem.reviewers_per_paper - len(assignment.reviewers_of(paper_id))
        for paper_id in problem.papers()
        if len(assignment.reviewers_of(paper_id)) < problem.reviewers_per_paper
    }
    if unfilled:
        detail = (
            f"demand {problem.demand()} vs capacity {problem.capacity()}"
            if problem.demand() > problem.capacity()
            else "candidate pools too thin under the load cap"
        )
        raise InfeasibleAssignmentError(unfilled, detail)
    return assignment

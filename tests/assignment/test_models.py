"""Tests for assignment problem/solution models."""

import pytest

from repro.assignment.models import (
    Assignment,
    AssignmentProblem,
    assess_assignment,
)
from repro.assignment.objective import AssignmentObjective


@pytest.fixture()
def problem():
    return AssignmentProblem(
        scores={
            "p1": {"r1": 0.9, "r2": 0.5},
            "p2": {"r1": 0.8, "r3": 0.6},
        },
        reviewers_per_paper=2,
        max_load=2,
    )


class TestObjectiveValidation:
    @pytest.mark.parametrize(
        "field", ["score_weight", "balance_weight", "coverage_weight"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_non_finite_or_negative_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AssignmentObjective(**{field: value})


class TestProblemValidation:
    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            AssignmentProblem(scores={}, reviewers_per_paper=0)

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            AssignmentProblem(scores={}, max_load=0)

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            AssignmentProblem(scores={"p": {"r": -0.1}})

    def test_accessors(self, problem):
        assert problem.papers() == ["p1", "p2"]
        assert problem.reviewers() == ["r1", "r2", "r3"]
        assert problem.demand() == 4
        assert problem.capacity() == 6


class TestAssignmentAccessors:
    def test_loads(self):
        assignment = Assignment(by_paper={"p1": ["r1"], "p2": ["r1", "r2"]})
        assert assignment.loads() == {"r1": 2, "r2": 1}
        assert assignment.total_assignments() == 3

    def test_reviewers_of_missing_paper(self):
        assert Assignment().reviewers_of("nope") == []


class TestAssessment:
    def test_full_feasible_assignment(self, problem):
        assignment = Assignment(by_paper={"p1": ["r1", "r2"], "p2": ["r1", "r3"]})
        quality = assess_assignment(problem, assignment)
        assert quality.unfilled_slots == 0
        assert quality.total_score == pytest.approx(2.8)
        assert quality.min_paper_score == pytest.approx(1.4)
        assert quality.max_load == 2

    def test_unfilled_slots_counted(self, problem):
        assignment = Assignment(by_paper={"p1": ["r1"], "p2": []})
        quality = assess_assignment(problem, assignment)
        assert quality.unfilled_slots == 3

    def test_overload_rejected(self, problem):
        assignment = Assignment(
            by_paper={"p1": ["r1", "r2"], "p2": ["r1", "r3"]}
        )
        tight = AssignmentProblem(
            scores=problem.scores, reviewers_per_paper=2, max_load=1
        )
        with pytest.raises(ValueError, match="overloaded"):
            assess_assignment(tight, assignment)

    def test_duplicate_reviewer_rejected(self, problem):
        assignment = Assignment(by_paper={"p1": ["r1", "r1"], "p2": []})
        with pytest.raises(ValueError, match="duplicate"):
            assess_assignment(problem, assignment)

    def test_over_quota_rejected(self):
        problem = AssignmentProblem(
            scores={"p1": {"r1": 1, "r2": 1, "r3": 1}},
            reviewers_per_paper=2,
            max_load=3,
        )
        assignment = Assignment(by_paper={"p1": ["r1", "r2", "r3"]})
        with pytest.raises(ValueError, match="over quota"):
            assess_assignment(problem, assignment)

    def test_unassignable_pair_rejected(self, problem):
        assignment = Assignment(by_paper={"p1": ["r3"], "p2": []})
        with pytest.raises(ValueError, match="not assignable"):
            assess_assignment(problem, assignment)

    def test_empty_problem(self):
        problem = AssignmentProblem(scores={})
        quality = assess_assignment(problem, Assignment())
        assert quality.total_score == 0.0
        assert quality.unfilled_slots == 0

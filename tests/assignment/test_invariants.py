"""Property tests for the assignment invariants (ISSUE 6, satellite 1).

Fuzzes randomly generated instances through every solver and asserts
the contract that the conference harness leans on:

- per-reviewer capacity is never exceeded;
- every paper gets exactly ``k`` reviewers, or ``require_full_assignment``
  raises a typed :class:`InfeasibleAssignmentError` naming the shortfall;
- a COI-flagged pair is never assigned (the matrix is COI-screened —
  screened pairs simply do not exist as assignable edges);
- conference runs are bit-identical at 1, 2 and 8 workers, including
  which reviewers each paper gets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import (
    AssignmentObjective,
    InfeasibleAssignmentError,
    assign_conference,
    greedy_assignment,
    greedy_swap_assignment,
    min_cost_flow_assignment,
    random_assignment,
    require_full_assignment,
)
from repro.assignment.models import AssignmentProblem
from repro.core.pipeline import Minaret
from repro.scholarly.registry import ScholarlyHub
from repro.world.conference import ConferenceConfig, generate_conference

ALL_SOLVERS = [
    ("greedy", lambda p: greedy_assignment(p)),
    ("greedy-swap", lambda p: greedy_swap_assignment(p)),
    ("flow", lambda p: min_cost_flow_assignment(p)),
    (
        "flow-balance",
        lambda p: min_cost_flow_assignment(
            p, AssignmentObjective(balance_weight=0.2)
        ),
    ),
    ("random", lambda p: random_assignment(p, seed=3)),
]


@st.composite
def screened_problems(draw):
    """A random instance plus the COI pairs its screen removed.

    Mirrors how the real matrix is built: the pipeline's ``CoiScreen``
    drops conflicted candidates *before* the problem exists, so a COI
    pair must never appear among the assignable edges — and therefore
    never in any solver's output.
    """
    paper_count = draw(st.integers(1, 6))
    reviewer_count = draw(st.integers(1, 8))
    quota = draw(st.integers(1, 3))
    load = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10_000)))
    coi_pairs = set()
    scores = {}
    for p in range(paper_count):
        paper_id = f"p{p}"
        row = {}
        for r in range(reviewer_count):
            reviewer_id = f"r{r}"
            if rng.random() < 0.15:
                coi_pairs.add((paper_id, reviewer_id))
            elif rng.random() < 0.75:
                row[reviewer_id] = round(rng.random(), 3)
        scores[paper_id] = row
    problem = AssignmentProblem(
        scores=scores, reviewers_per_paper=quota, max_load=load
    )
    return problem, coi_pairs


class TestCapacityInvariant:
    @settings(max_examples=60, deadline=None)
    @given(screened_problems())
    def test_no_solver_exceeds_capacity(self, case):
        problem, _ = case
        for name, solver in ALL_SOLVERS:
            loads = solver(problem).loads()
            assert all(load <= problem.max_load for load in loads.values()), (
                f"{name} exceeded max_load={problem.max_load}: {dict(loads)}"
            )

    @settings(max_examples=60, deadline=None)
    @given(screened_problems())
    def test_no_solver_overfills_or_duplicates(self, case):
        problem, _ = case
        for name, solver in ALL_SOLVERS:
            assignment = solver(problem)
            for paper_id in problem.papers():
                reviewers = assignment.reviewers_of(paper_id)
                assert len(reviewers) <= problem.reviewers_per_paper, name
                assert len(set(reviewers)) == len(reviewers), (
                    f"{name} assigned a reviewer twice to {paper_id}"
                )


class TestCoiInvariant:
    @settings(max_examples=60, deadline=None)
    @given(screened_problems())
    def test_screened_pairs_never_assigned(self, case):
        problem, coi_pairs = case
        for name, solver in ALL_SOLVERS:
            assignment = solver(problem)
            assigned = {
                (paper_id, reviewer)
                for paper_id in problem.papers()
                for reviewer in assignment.reviewers_of(paper_id)
            }
            flagged = assigned & coi_pairs
            assert not flagged, f"{name} assigned COI pairs {flagged}"


class TestQuotaOrTypedError:
    @settings(max_examples=60, deadline=None)
    @given(screened_problems())
    def test_exactly_k_or_infeasible(self, case):
        """The flow solver either fills every paper or the shortfall is
        a typed error — never a silently short set."""
        problem, _ = case
        assignment = min_cost_flow_assignment(problem)
        try:
            require_full_assignment(problem, assignment)
        except InfeasibleAssignmentError as exc:
            # The error names every short paper with its missing count.
            assert exc.unfilled
            for paper_id, missing in exc.unfilled.items():
                got = len(assignment.reviewers_of(paper_id))
                assert got + missing == problem.reviewers_per_paper
        else:
            for paper_id in problem.papers():
                assert (
                    len(assignment.reviewers_of(paper_id))
                    == problem.reviewers_per_paper
                )

    def test_feasible_dense_instance_fills_exactly(self):
        problem = AssignmentProblem(
            scores={
                f"p{p}": {f"r{r}": 0.5 + 0.01 * r for r in range(6)}
                for p in range(4)
            },
            reviewers_per_paper=3,
            max_load=2,
        )
        assignment = require_full_assignment(
            problem, min_cost_flow_assignment(problem)
        )
        for paper_id in problem.papers():
            assert len(assignment.reviewers_of(paper_id)) == 3

    def test_undersupplied_instance_raises_typed_error(self):
        problem = AssignmentProblem(
            scores={"p0": {"r0": 1.0}, "p1": {"r0": 0.9}},
            reviewers_per_paper=1,
            max_load=1,
        )
        with pytest.raises(InfeasibleAssignmentError) as excinfo:
            require_full_assignment(problem, min_cost_flow_assignment(problem))
        assert excinfo.value.unfilled in ({"p0": 1}, {"p1": 1})
        assert "demand 2 vs capacity 1" in str(excinfo.value)


class TestWorkerDeterminism:
    @pytest.fixture(scope="class")
    def scenario(self, world):
        return generate_conference(
            world, ConferenceConfig(paper_count=4, seed=3)
        )

    def test_conference_bit_identical_across_worker_counts(
        self, world, scenario
    ):
        """The whole conference result — assignments, scores, failures —
        is a pure function of the inputs, not of the worker count."""
        outcomes = []
        for workers in (1, 2, 8):
            hub = ScholarlyHub.deploy(world)
            conference = assign_conference(
                Minaret(hub),
                scenario.entries(),
                reviewers_per_paper=2,
                capacity=3,
                solver="flow",
                workers=workers,
            )
            outcomes.append(
                (
                    conference.assignment.by_paper,
                    conference.objective_value,
                    conference.failures,
                    [
                        (paper_id, [s.total_score for s in result.ranked])
                        for paper_id, result in conference.results
                    ],
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestChecksBeforeFanOut:
    """A malformed call is refused before any pipeline runs or any request goes out."""

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            pytest.param({"reviewers_per_paper": 0}, "reviewers_per_paper must be >= 1", id="k0"),
            pytest.param({"capacity": 0}, "capacity must be >= 1", id="capacity0"),
            pytest.param({"solver": "annealing"}, "unknown solver", id="solver"),
            pytest.param({"on_error": "retry"}, "on_error must be", id="on_error"),
        ],
    )
    def test_rejected_before_any_request(self, hub, manuscript, kwargs, message):
        before = hub.total_requests()
        with pytest.raises(ValueError, match=message):
            assign_conference(Minaret(hub), [("p0", manuscript)], **kwargs)
        assert hub.total_requests() == before

    def test_duplicate_paper_ids_rejected_before_any_request(self, hub, manuscript):
        before = hub.total_requests()
        with pytest.raises(ValueError, match="duplicate paper id 'p0'"):
            assign_conference(
                Minaret(hub), [("p0", manuscript), ("p1", manuscript), ("p0", manuscript)]
            )
        assert hub.total_requests() == before

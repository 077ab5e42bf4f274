"""Tests for the coverage and balance objective terms.

The CLI (``assign --balance/--coverage``) and the API (``balance_weight``,
``coverage_weight``) pass these weights to the solvers, and only the
greedy-swap local search optimizes the coverage term.  These tests pin
the facet universe and coverage fraction, the scalar objective, and the
replace and swap moves the weights make worthwhile.
"""

import random

import pytest

from repro.assignment.models import Assignment, AssignmentProblem, assess_assignment
from repro.assignment.objective import (
    AssignmentObjective,
    coverage_fraction,
    objective_value,
    paper_facet_universe,
)
from repro.assignment.solvers import (
    _LocalSearch,
    greedy_assignment,
    greedy_swap_assignment,
    min_cost_flow_assignment,
)


def faceted_single_paper() -> AssignmentProblem:
    """Two near-identical rdf experts and one weaker sparql expert."""
    return AssignmentProblem(
        scores={"p1": {"r1": 0.9, "r2": 0.85, "r3": 0.5}},
        reviewers_per_paper=2,
        max_load=1,
        facets={
            "p1": {
                "r1": frozenset({"rdf"}),
                "r2": frozenset({"rdf"}),
                "r3": frozenset({"sparql"}),
            }
        },
    )


def swap_instance() -> AssignmentProblem:
    """Two full papers whose reviewer sets cover more after one exchange.

    Every score ties, so greedy seats ``r1, r2`` on ``p1`` and ``r3, r4``
    on ``p2``; every reviewer is at ``max_load``, so no replace or
    augment move exists and only a swap can raise coverage.
    """
    everyone = {reviewer: 0.5 for reviewer in ("r1", "r2", "r3", "r4")}
    return AssignmentProblem(
        scores={"p1": dict(everyone), "p2": dict(everyone)},
        reviewers_per_paper=2,
        max_load=1,
        facets={
            "p1": {
                "r1": frozenset({"a"}),
                "r2": frozenset({"a"}),
                "r3": frozenset({"b"}),
                "r4": frozenset({"b"}),
            },
            "p2": {
                "r1": frozenset({"c"}),
                "r2": frozenset({"d"}),
                "r3": frozenset({"c"}),
                "r4": frozenset({"c"}),
            },
        },
    )


def balance_instance() -> AssignmentProblem:
    """One star reviewer who is everyone's first choice."""
    return AssignmentProblem(
        scores={"p1": {"r1": 0.9, "r2": 0.8}, "p2": {"r1": 0.9, "r2": 0.8}},
        reviewers_per_paper=1,
        max_load=2,
    )


def random_faceted_problem(seed: int) -> AssignmentProblem:
    rng = random.Random(seed)
    reviewers = [f"r{index}" for index in range(rng.randint(2, 7))]
    facets_pool = ["a", "b", "c", "d", "e"]
    scores: dict[str, dict[str, float]] = {}
    facets: dict[str, dict[str, frozenset[str]]] = {}
    for paper in range(rng.randint(1, 5)):
        paper_id = f"p{paper}"
        candidates = [r for r in reviewers if rng.random() < 0.75]
        scores[paper_id] = {r: round(rng.random(), 3) for r in candidates}
        facets[paper_id] = {
            r: frozenset(rng.sample(facets_pool, rng.randint(0, 2)))
            for r in candidates
        }
    return AssignmentProblem(
        scores=scores,
        reviewers_per_paper=rng.randint(1, 3),
        max_load=rng.randint(1, 3),
        facets=facets,
    )


OBJECTIVES = {
    "score": AssignmentObjective(),
    "balance": AssignmentObjective(balance_weight=0.2),
    "coverage": AssignmentObjective(coverage_weight=1.0),
    "balance+coverage": AssignmentObjective(balance_weight=0.1, coverage_weight=0.5),
}


class TestFacetUniverse:
    def test_no_facets_gives_empty_universe(self):
        problem = AssignmentProblem(scores={"p1": {"r1": 1.0}})
        assert paper_facet_universe(problem, "p1") == frozenset()

    def test_union_of_every_candidates_facets(self):
        universe = paper_facet_universe(faceted_single_paper(), "p1")
        assert universe == frozenset({"rdf", "sparql"})

    def test_paper_without_facet_entry_is_empty(self):
        assert paper_facet_universe(faceted_single_paper(), "p9") == frozenset()


class TestCoverageFraction:
    @pytest.mark.parametrize(
        ("reviewers", "expected"),
        [
            ([], 0.0),
            (["r1"], 0.5),
            (["r1", "r2"], 0.5),
            (["r3"], 0.5),
            (["r1", "r3"], 1.0),
            (["r1", "r2", "r3"], 1.0),
        ],
        ids=["none", "one-rdf", "two-rdf", "sparql", "rdf+sparql", "all"],
    )
    def test_fraction_of_universe_covered(self, reviewers, expected):
        problem = faceted_single_paper()
        assert coverage_fraction(problem, "p1", reviewers) == expected

    def test_empty_universe_covers_nothing(self):
        problem = AssignmentProblem(scores={"p1": {"r1": 1.0}})
        assert coverage_fraction(problem, "p1", ["r1"]) == 0.0

    def test_reviewer_outside_the_facet_map_adds_nothing(self):
        problem = faceted_single_paper()
        assert coverage_fraction(problem, "p1", ["r1", "stranger"]) == 0.5


class TestObjectiveValue:
    def test_default_is_sum_of_pair_scores(self):
        problem = faceted_single_paper()
        assignment = Assignment(by_paper={"p1": ["r1", "r3"]})
        assert objective_value(problem, assignment) == pytest.approx(1.4)

    def test_balance_subtracts_squared_loads(self):
        problem = balance_instance()
        stacked = Assignment(by_paper={"p1": ["r1"], "p2": ["r1"]})
        spread = Assignment(by_paper={"p1": ["r2"], "p2": ["r1"]})
        objective = AssignmentObjective(balance_weight=0.2)
        # 1.8 - 0.2 * 2**2 against 1.7 - 0.2 * (1 + 1).
        assert objective_value(problem, stacked, objective) == pytest.approx(1.0)
        assert objective_value(problem, spread, objective) == pytest.approx(1.3)

    def test_coverage_adds_weighted_fractions(self):
        problem = faceted_single_paper()
        objective = AssignmentObjective(score_weight=0.0, coverage_weight=2.0)
        same = Assignment(by_paper={"p1": ["r1", "r2"]})
        mixed = Assignment(by_paper={"p1": ["r1", "r3"]})
        assert objective_value(problem, same, objective) == pytest.approx(1.0)
        assert objective_value(problem, mixed, objective) == pytest.approx(2.0)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_terms_combine_linearly(self, name):
        objective = OBJECTIVES[name]
        problem = swap_instance()
        assignment = Assignment(by_paper={"p1": ["r1", "r2"], "p2": ["r3", "r4"]})
        score = 4 * 0.5
        coverage = 0.5 + 0.5
        balance = 4 * 1
        expected = (
            objective.score_weight * score
            + objective.coverage_weight * coverage
            - objective.balance_weight * balance
        )
        assert objective_value(problem, assignment, objective) == pytest.approx(
            expected
        )

    def test_unknown_pair_scores_zero(self):
        problem = faceted_single_paper()
        assignment = Assignment(by_paper={"p1": ["r1", "stranger"]})
        assert objective_value(problem, assignment) == pytest.approx(0.9)


class TestLocalSearchMoves:
    def test_pure_score_keeps_the_two_best_experts(self):
        problem = faceted_single_paper()
        assert greedy_swap_assignment(problem).by_paper == {"p1": ["r1", "r2"]}

    def test_coverage_replaces_a_redundant_expert(self):
        problem = faceted_single_paper()
        objective = AssignmentObjective(coverage_weight=1.0)
        swapped = greedy_swap_assignment(problem, objective)
        # Coverage +0.5 outweighs the 0.35 score given up for r3.
        assert swapped.by_paper == {"p1": ["r1", "r3"]}
        assert objective_value(problem, swapped, objective) > objective_value(
            problem, greedy_assignment(problem), objective
        )

    def test_small_coverage_weight_does_not_pay_for_the_score_loss(self):
        problem = faceted_single_paper()
        objective = AssignmentObjective(coverage_weight=0.5)
        # Coverage +0.25 is less than the 0.35 score r2 gives up.
        assert greedy_swap_assignment(problem, objective).by_paper == {
            "p1": ["r1", "r2"]
        }

    def test_coverage_swaps_reviewers_between_full_papers(self):
        problem = swap_instance()
        objective = AssignmentObjective(coverage_weight=1.0)
        assert greedy_assignment(problem).by_paper == {
            "p1": ["r1", "r2"],
            "p2": ["r3", "r4"],
        }
        swapped = greedy_swap_assignment(problem, objective)
        assert swapped.by_paper == {"p1": ["r1", "r3"], "p2": ["r2", "r4"]}
        assert coverage_fraction(problem, "p1", swapped.reviewers_of("p1")) == 1.0
        assert coverage_fraction(problem, "p2", swapped.reviewers_of("p2")) == 1.0

    def test_pure_score_leaves_tied_papers_alone(self):
        problem = swap_instance()
        assert greedy_swap_assignment(problem).by_paper == greedy_assignment(
            problem
        ).by_paper

    def test_balance_moves_a_paper_off_the_star_reviewer(self):
        problem = balance_instance()
        objective = AssignmentObjective(balance_weight=0.2)
        assert greedy_assignment(problem).loads()["r1"] == 2
        spread = greedy_swap_assignment(problem, objective)
        assert spread.by_paper == {"p1": ["r2"], "p2": ["r1"]}
        assert objective_value(problem, spread, objective) == pytest.approx(1.3)

    def test_balance_matches_the_exact_flow_solver(self):
        problem = balance_instance()
        objective = AssignmentObjective(balance_weight=0.2)
        swap = greedy_swap_assignment(problem, objective)
        flow = min_cost_flow_assignment(problem, objective)
        assert objective_value(problem, swap, objective) == pytest.approx(
            objective_value(problem, flow, objective)
        )

    def test_pure_score_stacks_the_star_reviewer(self):
        problem = balance_instance()
        assert greedy_swap_assignment(problem).loads()["r1"] == 2

    def test_augment_pays_the_balance_cost_of_the_backfill(self):
        # Greedy starves p3 (only r1 may review it); the augmenting path
        # moves r1 off p1 and backfills p1 with r2, whatever it costs.
        problem = AssignmentProblem(
            scores={
                "p1": {"r1": 0.9, "r2": 0.8},
                "p2": {"r1": 0.9, "r2": 0.8},
                "p3": {"r1": 0.1},
            },
            reviewers_per_paper=1,
            max_load=2,
        )
        objective = AssignmentObjective(balance_weight=0.2)
        assert assess_assignment(problem, greedy_assignment(problem)).unfilled_slots == 1
        result = greedy_swap_assignment(problem, objective)
        assert assess_assignment(problem, result).unfilled_slots == 0
        assert result.reviewers_of("p3") == ["r1"]

    def test_fill_seats_a_reviewer_a_replace_freed(self, monkeypatch):
        # Greedy leaves p5 open: its only candidate x is full on p2 and
        # p3, and no augmenting path exists (p2's other candidate y is
        # full too, p3 has no other).  Under the balance term, the
        # replace pass moves p1 from y to the idle w, which frees y for
        # p2, which frees x.  The next round's fill pass seats x on p5.
        problem = AssignmentProblem(
            scores={
                "p1": {"y": 0.95, "w": 0.5},
                "p2": {"y": 0.85, "x": 0.8},
                "p3": {"x": 0.75},
                "p4": {"y": 0.9},
                "p5": {"x": 0.7},
            },
            reviewers_per_paper=1,
            max_load=2,
        )
        objective = AssignmentObjective(balance_weight=0.5)
        assert greedy_assignment(problem).reviewers_of("p5") == []
        seated = []
        fill_pass = _LocalSearch.fill_pass

        def spy(search):
            before = {paper: set(search.assigned[paper]) for paper in search.papers}
            improved = fill_pass(search)
            seated.append(
                {
                    paper: sorted(search.assigned[paper] - before[paper])
                    for paper in search.papers
                    if search.assigned[paper] - before[paper]
                }
            )
            return improved

        monkeypatch.setattr(_LocalSearch, "fill_pass", spy)
        result = greedy_swap_assignment(problem, objective)
        assert seated == [{}, {"p5": ["x"]}, {}]
        assert result.by_paper == {
            "p1": ["w"],
            "p2": ["y"],
            "p3": ["x"],
            "p4": ["y"],
            "p5": ["x"],
        }
        flow = min_cost_flow_assignment(problem, objective)
        assert objective_value(problem, result, objective) == pytest.approx(
            objective_value(problem, flow, objective)
        )


class TestLocalSearchProperties:
    SEEDS = range(25)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_respects_quota_and_load(self, name):
        for seed in self.SEEDS:
            problem = random_faceted_problem(seed)
            result = greedy_swap_assignment(problem, OBJECTIVES[name])
            assess_assignment(problem, result)

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_never_fills_fewer_slots_than_greedy(self, name):
        for seed in self.SEEDS:
            problem = random_faceted_problem(seed)
            result = greedy_swap_assignment(problem, OBJECTIVES[name])
            seed_fill = greedy_assignment(problem).total_assignments()
            assert result.total_assignments() >= seed_fill, f"seed {seed}"

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_never_loses_objective_at_equal_fill(self, name):
        objective = OBJECTIVES[name]
        for seed in self.SEEDS:
            problem = random_faceted_problem(seed)
            seed_assignment = greedy_assignment(problem)
            result = greedy_swap_assignment(problem, objective)
            if result.total_assignments() != seed_assignment.total_assignments():
                continue
            assert objective_value(problem, result, objective) >= objective_value(
                problem, seed_assignment, objective
            ) - 1e-9, f"seed {seed}"

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_deterministic(self, name):
        for seed in self.SEEDS:
            problem = random_faceted_problem(seed)
            first = greedy_swap_assignment(problem, OBJECTIVES[name])
            second = greedy_swap_assignment(problem, OBJECTIVES[name])
            assert first.by_paper == second.by_paper

"""Tests for the planted conference scenario generator.

The load-bearing property is the planted-optimum guarantee: the score
matrix that :meth:`ConferenceScenario.planted_problem` emits must have
the planted assignment as its *unique* lexicographic optimum at every
permitted noise level, so an exact solver's planted recall is 1.0 by
construction and any shortfall measured later is the solver's fault.
"""

import pytest

from repro.assignment import (
    Assignment,
    AssignmentObjective,
    greedy_swap_assignment,
    min_cost_flow_assignment,
    objective_value,
)
from repro.world.conference import (
    ConferenceConfig,
    generate_conference,
    load_spread,
    planted_recall,
    precision_at_set,
)
from repro.world.model import GroundTruthOracle


@pytest.fixture(scope="module")
def scenario(world):
    return generate_conference(world, ConferenceConfig(paper_count=12, seed=3))


def planted_assignment(scenario) -> Assignment:
    """The planted truth as an :class:`Assignment`."""
    return Assignment(
        by_paper={paper.paper_id: sorted(paper.true_reviewers) for paper in scenario.papers}
    )


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ConferenceConfig(paper_count=0)
        with pytest.raises(ValueError):
            ConferenceConfig(reviewers_per_paper=0)
        with pytest.raises(ValueError):
            ConferenceConfig(max_load=0)
        with pytest.raises(ValueError):
            ConferenceConfig(score_noise=1.5)

    def test_pool_cannot_exceed_world(self, world):
        with pytest.raises(ValueError):
            generate_conference(
                world, ConferenceConfig(paper_count=4, pool_size=10_000)
            )


class TestPlantedStructure:
    def test_every_paper_gets_k_distinct_pool_reviewers(self, scenario):
        k = scenario.config.reviewers_per_paper
        pool = set(scenario.pool)
        for paper in scenario.papers:
            assert len(paper.true_reviewers) == k
            assert len(set(paper.true_reviewers)) == k
            assert set(paper.true_reviewers) <= pool

    def test_planted_allocation_respects_capacity(self, scenario):
        loads = planted_assignment(scenario).loads()
        assert all(
            load <= scenario.config.max_load for load in loads.values()
        )

    def test_planted_reviewers_are_coi_free(self, scenario):
        oracle = GroundTruthOracle(scenario.world)
        for paper in scenario.papers:
            for reviewer in paper.true_reviewers:
                assert reviewer not in paper.author_ids
                assert not oracle.has_coi(reviewer, list(paper.author_ids))

    def test_pool_excludes_submitting_leads(self, scenario):
        leads = {
            author_id
            for paper in scenario.papers
            for author_id in paper.author_ids
        }
        assert not leads & set(scenario.pool)

    def test_generation_is_deterministic(self, world):
        config = ConferenceConfig(paper_count=6, seed=11)
        first = generate_conference(world, config)
        second = generate_conference(world, config)
        assert first.pool == second.pool
        assert first.papers == second.papers

    def test_exhausted_pool_raises(self, world):
        with pytest.raises(ValueError, match="cannot plant"):
            generate_conference(
                world,
                ConferenceConfig(paper_count=10, pool_size=3, max_load=1),
            )


class TestPlantedSeparation:
    @pytest.mark.parametrize("noise", [0.0, 0.5, 1.0])
    def test_planted_pairs_strictly_outscore_background(self, world, noise):
        scenario = generate_conference(
            world,
            ConferenceConfig(paper_count=10, score_noise=noise, seed=3),
        )
        problem = scenario.planted_problem()
        for paper in scenario.papers:
            row = problem.scores[paper.paper_id]
            planted = {row[r] for r in paper.true_reviewers}
            background = [
                score
                for reviewer, score in row.items()
                if reviewer not in paper.true_reviewers
            ]
            if background:
                assert min(planted) > max(background)

    @pytest.mark.parametrize("noise", [0.0, 0.5, 1.0])
    def test_flow_recovers_planted_truth_exactly(self, world, noise):
        """The ISSUE acceptance criterion: planted recall 1.0."""
        scenario = generate_conference(
            world,
            ConferenceConfig(paper_count=10, score_noise=noise, seed=3),
        )
        problem = scenario.planted_problem()
        assignment = min_cost_flow_assignment(problem)
        assert planted_recall(scenario, assignment) == 1.0
        assert precision_at_set(scenario, assignment) == 1.0

    def test_greedy_swap_within_bound_of_flow(self, world):
        scenario = generate_conference(
            world, ConferenceConfig(paper_count=10, score_noise=1.0, seed=3)
        )
        problem = scenario.planted_problem()
        objective = AssignmentObjective()
        flow_value = objective_value(
            problem, min_cost_flow_assignment(problem), objective
        )
        swap_value = objective_value(
            problem, greedy_swap_assignment(problem), objective
        )
        assert swap_value >= 0.9 * flow_value

    def test_sparse_candidate_lists_still_recoverable(self, world):
        scenario = generate_conference(
            world,
            ConferenceConfig(
                paper_count=8, candidates_per_paper=4, seed=3
            ),
        )
        problem = scenario.planted_problem()
        for paper in scenario.papers:
            row = problem.scores[paper.paper_id]
            # k planted + at most candidates_per_paper background.
            assert len(row) <= scenario.config.reviewers_per_paper + 4
            assert set(paper.true_reviewers) <= set(row)
        assignment = min_cost_flow_assignment(problem)
        assert planted_recall(scenario, assignment) == 1.0


class TestMetrics:
    def test_planted_assignment_scores_perfectly(self, scenario):
        planted = planted_assignment(scenario)
        assert planted_recall(scenario, planted) == 1.0
        assert precision_at_set(scenario, planted) == 1.0

    def test_empty_assignment_scores_zero(self, scenario):
        from repro.assignment.models import Assignment

        empty = Assignment()
        assert planted_recall(scenario, empty) == 0.0
        assert precision_at_set(scenario, empty) == 0.0

    def test_load_spread_counts_idle_pool_members(self, scenario):
        planted = planted_assignment(scenario)
        spread = load_spread(planted, scenario.pool)
        loads = planted.loads()
        busiest = max(loads.values())
        if len(loads) < len(scenario.pool):
            assert spread == busiest  # someone idle -> min is 0
        assert spread >= 0

    def test_resolve_maps_ids_before_matching(self, scenario):
        planted = planted_assignment(scenario)
        prefixed = type(planted)(
            by_paper={
                paper: [f"x:{r}" for r in reviewers]
                for paper, reviewers in planted.by_paper.items()
            }
        )
        assert planted_recall(scenario, prefixed) == 0.0
        resolved = planted_recall(
            scenario, prefixed, resolve=lambda r: r.split(":", 1)[1]
        )
        assert resolved == 1.0

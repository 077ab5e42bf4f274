"""Small-instance exactness tests (ISSUE 6, satellite 2).

A brute-force reference solver enumerates every feasible assignment of
tiny instances (≤6 papers × ≤8 reviewers) and maximizes the same
lexicographic objective the solvers claim — fill count first, then
objective value.  Against it:

- min-cost-flow must match *exactly*, for the pure-score objective and
  with a load-balance term (the convex chain-node pricing);
- greedy-with-swaps must land within the stated bound (≥ 0.9 of the
  optimum's objective at equal fill shortfall tolerance).

Plus regression tests pinning the canonical tie-break order: equal
scores resolve by candidate id, and permuting dict insertion order
never changes any solver's output.

On instances too large to enumerate, the flow solver is checked against
:func:`networkx_reference`, the graph formulation solved by networkx's
generic min-cost max-flow: fill and integer-scaled cost must be equal.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.assignment import (
    AssignmentObjective,
    greedy_assignment,
    greedy_swap_assignment,
    min_cost_flow_assignment,
    objective_value,
    random_assignment,
)
from repro.assignment.models import Assignment, AssignmentProblem
from repro.assignment.solvers import _SCALE

#: The documented heuristic guarantee: greedy-with-swaps reaches at
#: least this fraction of the brute-force optimum's objective on
#: instances where both fill the same number of slots.
SWAP_BOUND = 0.9


def brute_force(problem, objective=None):
    """Exhaustive lexicographic optimum: (fill, objective value).

    Enumerates per-paper reviewer subsets depth-first under the load
    cap.  Only usable on tiny instances — that is the point: it is
    obviously correct, so the real solvers can be measured against it.
    """
    objective = objective or AssignmentObjective()
    papers = problem.papers()
    best = {"key": (-1, float("-inf")), "assignment": Assignment()}

    def subsets(paper_id, capacity):
        row = [r for r in sorted(problem.scores[paper_id]) if capacity[r] > 0]
        top = min(problem.reviewers_per_paper, len(row))
        for size in range(top, -1, -1):
            yield from itertools.combinations(row, size)

    def recurse(index, capacity, chosen):
        if index == len(papers):
            assignment = Assignment(
                by_paper={p: list(c) for p, c in chosen.items()}
            )
            key = (
                assignment.total_assignments(),
                objective_value(problem, assignment, objective),
            )
            if key > best["key"]:
                best["key"] = key
                best["assignment"] = assignment
            return
        paper_id = papers[index]
        for combo in subsets(paper_id, capacity):
            for reviewer in combo:
                capacity[reviewer] -= 1
            chosen[paper_id] = combo
            recurse(index + 1, capacity, chosen)
            del chosen[paper_id]
            for reviewer in combo:
                capacity[reviewer] += 1

    recurse(0, {r: problem.max_load for r in problem.reviewers()}, {})
    return best["assignment"], best["key"]


def networkx_reference(problem, objective=None):
    """The flow formulation as a networkx graph, solved by networkx.

    ``super -> source -> paper -> reviewer -> sink``: unit-capacity
    paper-reviewer edges priced ``-(slot_reward + weight)``, reviewer
    capacity ``max_load`` (through a chain of unit slot edges priced
    ``balance * (2j - 1)`` when balanced), and ``max_flow_min_cost``
    maximizing fill before cost.  Generic and slow, and obviously the
    same integer objective the solver claims to optimize.
    """
    objective = objective or AssignmentObjective()
    papers = problem.papers()
    reviewers = problem.reviewers()
    if not reviewers:
        return Assignment(by_paper={p: [] for p in papers})
    graph = nx.DiGraph()
    graph.add_nodes_from(("super", "source", "sink"))
    balance = objective.balance_weight
    max_score = max(
        (s for row in problem.scores.values() for s in row.values()), default=0.0
    )
    max_unit_cost = int(objective.score_weight * (max_score + 1) * _SCALE) + int(
        balance * (2 * problem.max_load + 1) * _SCALE
    )
    slot_reward = (max_unit_cost + 1) * (problem.demand() + 1)
    for paper_id in papers:
        graph.add_edge(
            "source", f"p:{paper_id}", capacity=problem.reviewers_per_paper, weight=0
        )
    for reviewer_id in reviewers:
        if balance > 0.0:
            for slot in range(1, problem.max_load + 1):
                slot_node = f"l:{reviewer_id}:{slot}"
                graph.add_edge(
                    f"r:{reviewer_id}",
                    slot_node,
                    capacity=1,
                    weight=int(round(balance * (2 * slot - 1) * _SCALE)),
                )
                graph.add_edge(slot_node, "sink", capacity=1, weight=0)
        else:
            graph.add_edge(
                f"r:{reviewer_id}", "sink", capacity=problem.max_load, weight=0
            )
    for paper_id in papers:
        candidates = problem.scores[paper_id]
        for reviewer_id in sorted(candidates):
            weight = int(
                round(objective.score_weight * candidates[reviewer_id] * _SCALE)
            )
            graph.add_edge(
                f"p:{paper_id}",
                f"r:{reviewer_id}",
                capacity=1,
                weight=-(slot_reward + weight),
            )
    demand = min(problem.demand(), problem.capacity())
    graph.add_edge("super", "source", capacity=demand, weight=0)
    flow = nx.max_flow_min_cost(graph, "super", "sink")
    return Assignment(
        by_paper={
            paper_id: sorted(
                target[2:]
                for target, units in flow[f"p:{paper_id}"].items()
                if units > 0
            )
            for paper_id in papers
        }
    )


def integer_cost(problem, assignment, objective):
    """The objective in the solvers' integer prices (score minus balance)."""
    score = sum(
        round(objective.score_weight * problem.scores[paper_id][reviewer] * _SCALE)
        for paper_id, reviewers in assignment.by_paper.items()
        for reviewer in reviewers
    )
    balance = sum(
        round(objective.balance_weight * (2 * slot - 1) * _SCALE)
        for load in assignment.loads().values()
        for slot in range(1, load + 1)
    )
    return score - balance


def small_instance(seed, paper_count=4, reviewer_count=5, quota=2, load=2):
    rng = random.Random(seed)
    scores = {}
    for p in range(paper_count):
        scores[f"p{p}"] = {
            f"r{r}": round(rng.uniform(0.05, 1.0), 3)
            for r in range(reviewer_count)
            if rng.random() < 0.8
        }
    return AssignmentProblem(
        scores=scores, reviewers_per_paper=quota, max_load=load
    )


class TestFlowMatchesBruteForce:
    def test_pure_score_exact_on_random_instances(self):
        for seed in range(10):
            problem = small_instance(seed)
            brute, (brute_fill, brute_value) = brute_force(problem)
            flow = min_cost_flow_assignment(problem)
            assert flow.total_assignments() == brute_fill, f"seed {seed}"
            value = objective_value(problem, flow, AssignmentObjective())
            assert abs(value - brute_value) < 1e-6, f"seed {seed}"

    def test_balance_objective_exact_on_random_instances(self):
        objective = AssignmentObjective(balance_weight=0.3)
        for seed in range(10):
            problem = small_instance(seed)
            _, (brute_fill, brute_value) = brute_force(problem, objective)
            flow = min_cost_flow_assignment(problem, objective)
            assert flow.total_assignments() == brute_fill, f"seed {seed}"
            value = objective_value(problem, flow, objective)
            assert abs(value - brute_value) < 1e-6, f"seed {seed}"

    def test_exact_at_issue_ceiling_size(self):
        """The largest instance shape the satellite names: 6 × 8."""
        problem = small_instance(
            99, paper_count=6, reviewer_count=8, quota=1, load=1
        )
        _, (brute_fill, brute_value) = brute_force(problem)
        flow = min_cost_flow_assignment(problem)
        assert flow.total_assignments() == brute_fill
        value = objective_value(problem, flow, AssignmentObjective())
        assert abs(value - brute_value) < 1e-6


class TestGreedySwapBound:
    def test_within_stated_bound_of_optimum(self):
        for seed in range(10):
            problem = small_instance(seed)
            _, (brute_fill, brute_value) = brute_force(problem)
            swap = greedy_swap_assignment(problem)
            value = objective_value(problem, swap, AssignmentObjective())
            assert swap.total_assignments() >= brute_fill - 1, f"seed {seed}"
            if brute_value > 0:
                assert value >= SWAP_BOUND * brute_value, (
                    f"seed {seed}: swap {value:.6f} < "
                    f"{SWAP_BOUND} * optimum {brute_value:.6f}"
                )

    def test_improves_on_plain_greedy_starvation(self):
        problem = AssignmentProblem(
            scores={
                "paper1": {"r1": 0.9, "r2": 0.5, "r3": 0.4},
                "paper2": {"r1": 0.8, "r2": 0.7},
                "paper3": {"r1": 0.7, "r3": 0.6, "r2": 0.1},
            },
            reviewers_per_paper=2,
            max_load=2,
        )
        greedy = greedy_assignment(problem)
        swap = greedy_swap_assignment(problem)
        assert swap.total_assignments() > greedy.total_assignments()
        assert swap.total_assignments() == problem.demand()


class TestCanonicalTieBreaking:
    def permuted(self, problem, seed):
        """The same instance with every dict's insertion order shuffled."""
        rng = random.Random(seed)
        paper_ids = list(problem.scores)
        rng.shuffle(paper_ids)
        scores = {}
        for paper_id in paper_ids:
            reviewer_ids = list(problem.scores[paper_id])
            rng.shuffle(reviewer_ids)
            scores[paper_id] = {
                r: problem.scores[paper_id][r] for r in reviewer_ids
            }
        return AssignmentProblem(
            scores=scores,
            reviewers_per_paper=problem.reviewers_per_paper,
            max_load=problem.max_load,
        )

    def test_insertion_order_never_changes_output(self):
        solvers = [
            lambda p: greedy_assignment(p),
            lambda p: greedy_swap_assignment(p),
            lambda p: min_cost_flow_assignment(p),
            lambda p: min_cost_flow_assignment(
                p, AssignmentObjective(balance_weight=0.2)
            ),
            lambda p: random_assignment(p, seed=5),
        ]
        for seed in range(6):
            problem = small_instance(seed)
            for solver in solvers:
                reference = solver(problem).by_paper
                for permutation in range(4):
                    shuffled = self.permuted(problem, permutation)
                    assert solver(shuffled).by_paper == reference, (
                        f"seed {seed}, permutation {permutation}"
                    )

    def test_equal_scores_resolve_by_candidate_id(self):
        """An all-ties instance: every solver must prefer the
        lexicographically smallest candidate ids, not dict order."""
        problem = AssignmentProblem(
            scores={
                "p0": {"rz": 0.5, "ry": 0.5, "ra": 0.5, "rb": 0.5},
                "p1": {"rb": 0.5, "ra": 0.5, "rz": 0.5, "ry": 0.5},
            },
            reviewers_per_paper=2,
            max_load=2,
        )
        for solver in (
            greedy_assignment,
            greedy_swap_assignment,
            min_cost_flow_assignment,
        ):
            assignment = solver(problem)
            for paper_id in problem.papers():
                assert sorted(assignment.reviewers_of(paper_id)) == [
                    "ra",
                    "rb",
                ], solver.__name__


def oracle_instance(seed, capacity):
    """20-40 papers x 20-59 reviewers, quota 3, scores on a 0.1 grid.

    ``capacity`` sets the load cap against the demand: ``loose`` gives
    at least twice the demand, ``tight`` just covers it and
    ``over-demand`` falls short of it: at most half, or one paper per
    reviewer, which is still fewer than the 60 or more slots.
    """
    rng = random.Random(seed)
    paper_count = rng.randint(20, 40)
    reviewer_count = rng.randint(20, 59)
    density = rng.uniform(0.15, 0.5)
    quota = 3
    per_reviewer = paper_count * quota / reviewer_count
    load = {
        "loose": math.ceil(2 * per_reviewer),
        "tight": math.ceil(per_reviewer),
        "over-demand": max(1, math.floor(per_reviewer / 2)),
    }[capacity]
    scores = {
        f"p{p:02d}": {
            f"r{r:02d}": round(rng.random(), 1)
            for r in range(reviewer_count)
            if rng.random() < density
        }
        for p in range(paper_count)
    }
    return AssignmentProblem(scores=scores, reviewers_per_paper=quota, max_load=load)


class TestFlowMatchesNetworkxOracle:
    @pytest.mark.parametrize("balance_weight", [0.0, 0.2])
    @pytest.mark.parametrize("capacity", ["loose", "tight", "over-demand"])
    def test_fill_and_cost_match_oracle(self, capacity, balance_weight):
        objective = AssignmentObjective(balance_weight=balance_weight)
        for seed in range(4):
            problem = oracle_instance(seed, capacity)
            if capacity == "over-demand":
                assert problem.capacity() < problem.demand()
            reference = networkx_reference(problem, objective)
            flow = min_cost_flow_assignment(problem, objective)
            assert flow.total_assignments() == reference.total_assignments(), (
                f"seed {seed}"
            )
            assert integer_cost(problem, flow, objective) == integer_cost(
                problem, reference, objective
            ), f"seed {seed}"

    def test_later_paper_displaces_lower_scoring_earlier_paper(self):
        """Only one of the two papers can have r0; p1 values it more.

        p0 is routed first and takes r0.  p1's cheapest path then takes
        r0 from p0 and leaves p0's slot unfilled, so score, not the
        order papers are routed in, decides which paper goes short.
        """
        problem = AssignmentProblem(
            scores={"p0": {"r0": 0.1}, "p1": {"r0": 0.9}},
            reviewers_per_paper=1,
            max_load=1,
        )
        assignment = min_cost_flow_assignment(problem)
        assert assignment.by_paper == {"p0": [], "p1": ["r0"]}
        assert assignment.by_paper == networkx_reference(problem).by_paper


def test_importing_assignment_leaves_networkx_unloaded():
    """The solver needs no networkx; only these tests import it, as the oracle."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = "import sys, repro.assignment; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "False"

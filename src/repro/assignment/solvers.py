"""Assignment solvers: greedy, greedy + local swaps, exact flow, random.

The exact solver, :func:`min_cost_flow_assignment`, treats the instance
as a min-cost flow on the bipartite score matrix::

    paper --(cap 1, cost -w)--> reviewer --(j-th slot, cost c_j)--> sink
    paper --(unfilled slot, cost slot_reward)--------------------> sink

Every paper supplies ``reviewers_per_paper`` units of flow.  A unit
either seats a reviewer (unit capacity per pair, so a reviewer sits on
a paper at most once, and at most ``max_load`` slots per reviewer) or
leaves one of the paper's slots unfilled.  The unfilled price exceeds
any achievable spread of score and balance costs, so the min-cost flow
first fills as many slots as the instance allows and then maximizes
``score_weight * total score - balance_weight * sum(load^2)``.  The
balance term prices a reviewer's *j*-th slot at the convex marginal
cost ``balance_weight * (2j - 1)``; since those prices never decrease,
taking a reviewer's next free slot is always its cheapest, and the
flow minimizes the sum of squared loads exactly.  Set coverage is
submodular and outside what arc costs can express —
:func:`greedy_swap_assignment` is the solver that optimizes it.

**Algorithm.**  Successive shortest paths: papers in sorted-id order,
one slot at a time, each slot routed along a cheapest path from its
paper to the sink in the residual graph.  A path may reseat earlier
papers (take a reviewer from one, give it another) before it ends at a
free reviewer slot or an unfilled slot.  Routing each slot this way
keeps the flow a min-cost flow for the slots routed so far, so the
last slot leaves an optimal assignment.  Each search is Dijkstra over
reduced costs ``cost + potential(tail) - potential(head)``, which stay
non-negative:

- potentials start so that a paper -> reviewer arc costs ``top - w``
  (``top`` is the largest weight) and a reviewer's first slot costs 0;
- a sink arc is priced when its node's label is set, and the search
  stops once the next pop reaches the best sink distance;
- only the nodes the search settled move their potentials.

**Integer costs.**  Weights are ``round(score_weight * score *
_SCALE)`` and slot prices ``round(balance_weight * (2j - 1) *
_SCALE)``.  Potentials accumulate one update per routed slot; in
integers they never drift, so a reduced cost cannot dip below zero by
rounding, and equal-cost paths tie exactly and are decided by the
tie-break below.

**Unfilled-slot arc.**  Without it, a paper routed early would keep a
reviewer that a later paper values more even when the two cannot both
be filled: processing order, not score, would decide which paper goes
short.  With it, a later paper's path may take that reviewer and leave
the earlier paper's slot unfilled whenever that costs less.

**Tie-break.**  Heap entries are ``(distance, kind, sorted index)``,
arcs are scanned in sorted id order, and a label or the chosen sink arc
changes only for a strictly shorter distance.  Among equal-cost optima
the solver therefore picks by the problem's content alone.

Every solver is *canonically deterministic*: equal-score alternatives
resolve by candidate id, never by dict or heap iteration order, so two
problems that differ only in dict insertion order produce identical
assignments (see ``tests/assignment`` for the regression).
"""

from __future__ import annotations

import random as random_module
from bisect import insort
from heapq import heappop, heappush

from repro.assignment.models import Assignment, AssignmentProblem
from repro.assignment.objective import (
    EPSILON,
    AssignmentObjective,
    coverage_fraction,
)
from repro.obs import get_obs

#: Cost scaling factor: scores are rounded to this precision.
_SCALE = 10_000


def greedy_assignment(problem: AssignmentProblem) -> Assignment:
    """Assign best-scoring pairs first, respecting quota and load.

    Deterministic: ties break on (paper, reviewer) ids.  Linear in the
    number of candidate pairs after the initial sort.
    """
    pairs = sorted(
        (
            (-score, paper_id, reviewer_id)
            for paper_id, candidates in problem.scores.items()
            for reviewer_id, score in candidates.items()
        ),
    )
    remaining_quota = {p: problem.reviewers_per_paper for p in problem.scores}
    remaining_load = {r: problem.max_load for r in problem.reviewers()}
    assignment = Assignment(by_paper={p: [] for p in problem.scores})
    for __, paper_id, reviewer_id in pairs:
        if remaining_quota[paper_id] == 0:
            continue
        if remaining_load[reviewer_id] == 0:
            continue
        if reviewer_id in assignment.by_paper[paper_id]:
            continue
        assignment.by_paper[paper_id].append(reviewer_id)
        remaining_quota[paper_id] -= 1
        remaining_load[reviewer_id] -= 1
    return assignment


# ----------------------------------------------------------------------
# Greedy seed + local-swap improvement
# ----------------------------------------------------------------------


class _LocalSearch:
    """Deterministic first-improvement local search over one assignment.

    Move repertoire, each strictly improving ``(filled slots,
    objective)`` lexicographically:

    - **fill**: an unfilled paper takes the best free reviewer;
    - **augment**: an unfilled paper takes a fully-loaded reviewer whose
      seat on another paper is backfilled by a free one (a length-2
      alternating path — undoes greedy starvation);
    - **replace**: one paper upgrades one of its reviewers to a better
      free one;
    - **swap**: two papers exchange reviewers.

    All scans run in sorted (paper id, reviewer id) order and apply the
    best candidate of each scan point immediately, so the search is a
    pure function of the problem.
    """

    def __init__(self, problem: AssignmentProblem, objective: AssignmentObjective):
        self.problem = problem
        self.objective = objective
        self.papers = problem.papers()
        self.assigned: dict[str, set[str]] = {p: set() for p in self.papers}
        self.load: dict[str, int] = {r: 0 for r in problem.reviewers()}
        self.moves = 0

    # -- state ----------------------------------------------------------

    def seed_from(self, assignment: Assignment) -> None:
        for paper_id, reviewers in assignment.by_paper.items():
            self.assigned[paper_id] = set(reviewers)
            for reviewer in reviewers:
                self.load[reviewer] += 1

    def to_assignment(self) -> Assignment:
        return Assignment(
            by_paper={p: sorted(self.assigned[p]) for p in self.papers}
        )

    def _score(self, paper_id: str, reviewer_id: str) -> float:
        return self.problem.scores[paper_id][reviewer_id]

    def _cov(self, paper_id: str, reviewers) -> float:
        if self.objective.coverage_weight == 0.0:
            return 0.0
        return self.objective.coverage_weight * coverage_fraction(
            self.problem, paper_id, list(reviewers)
        )

    def _add_value(self, paper_id: str, reviewer_id: str) -> float:
        """Objective delta of seating ``reviewer_id`` on ``paper_id``."""
        delta = self.objective.score_weight * self._score(paper_id, reviewer_id)
        if self.objective.balance_weight > 0.0:
            delta -= self.objective.balance_weight * (
                2 * self.load[reviewer_id] + 1
            )
        if self.objective.coverage_weight > 0.0:
            current = self.assigned[paper_id]
            delta += self._cov(paper_id, current | {reviewer_id}) - self._cov(
                paper_id, current
            )
        return delta

    def _free(self, reviewer_id: str) -> bool:
        return self.load[reviewer_id] < self.problem.max_load

    def _open_papers(self) -> list[str]:
        quota = self.problem.reviewers_per_paper
        return [p for p in self.papers if len(self.assigned[p]) < quota]

    # -- moves ----------------------------------------------------------

    def fill_pass(self) -> bool:
        """Seat free reviewers on under-quota papers.  Fill dominates."""
        improved = False
        for paper_id in self._open_papers():
            candidates = self.problem.scores[paper_id]
            while len(self.assigned[paper_id]) < self.problem.reviewers_per_paper:
                best = None
                for reviewer_id in sorted(candidates):
                    if reviewer_id in self.assigned[paper_id]:
                        continue
                    if not self._free(reviewer_id):
                        continue
                    value = self._add_value(paper_id, reviewer_id)
                    if best is None or value > best[0] + EPSILON:
                        best = (value, reviewer_id)
                if best is None:
                    break
                self.assigned[paper_id].add(best[1])
                self.load[best[1]] += 1
                self.moves += 1
                improved = True
        return improved

    def augment_pass(self) -> bool:
        """Fill an open slot by displacing a loaded reviewer elsewhere."""
        improved = False
        for paper_id in self._open_papers():
            if self._try_augment(paper_id):
                improved = True
        return improved

    def _try_augment(self, paper_id: str) -> bool:
        """One length-2 alternating path into ``paper_id``, best-value."""
        candidates = self.problem.scores[paper_id]
        best = None  # (value, reviewer, donor_paper, backfill)
        for reviewer_id in sorted(candidates):
            if reviewer_id in self.assigned[paper_id] or self._free(reviewer_id):
                continue
            for donor in self.papers:
                if donor == paper_id or reviewer_id not in self.assigned[donor]:
                    continue
                donor_scores = self.problem.scores[donor]
                for backfill in sorted(donor_scores):
                    if backfill == reviewer_id or backfill in self.assigned[donor]:
                        continue
                    if not self._free(backfill):
                        continue
                    value = (
                        self.objective.score_weight
                        * (
                            self._score(paper_id, reviewer_id)
                            + donor_scores[backfill]
                            - donor_scores[reviewer_id]
                        )
                    )
                    if self.objective.balance_weight > 0.0:
                        value -= self.objective.balance_weight * (
                            2 * self.load[backfill] + 1
                        )
                    if self.objective.coverage_weight > 0.0:
                        value += self._cov(
                            paper_id, self.assigned[paper_id] | {reviewer_id}
                        ) - self._cov(paper_id, self.assigned[paper_id])
                        donor_set = self.assigned[donor]
                        value += self._cov(
                            donor, (donor_set - {reviewer_id}) | {backfill}
                        ) - self._cov(donor, donor_set)
                    if best is None or value > best[0] + EPSILON:
                        best = (value, reviewer_id, donor, backfill)
        if best is None:
            return False
        __, reviewer_id, donor, backfill = best
        self.assigned[donor].remove(reviewer_id)
        self.assigned[donor].add(backfill)
        self.load[backfill] += 1
        self.assigned[paper_id].add(reviewer_id)
        self.moves += 1
        return True

    def replace_pass(self) -> bool:
        """Upgrade single seats: swap an assigned reviewer for a free one."""
        improved = False
        for paper_id in self.papers:
            candidates = self.problem.scores[paper_id]
            for out in sorted(self.assigned[paper_id]):
                best = None
                for into in sorted(candidates):
                    if into in self.assigned[paper_id] or not self._free(into):
                        continue
                    value = self.objective.score_weight * (
                        candidates[into] - candidates[out]
                    )
                    if self.objective.balance_weight > 0.0:
                        value -= self.objective.balance_weight * (
                            2 * self.load[into] + 1
                        )
                        value += self.objective.balance_weight * (
                            2 * self.load[out] - 1
                        )
                    if self.objective.coverage_weight > 0.0:
                        current = self.assigned[paper_id]
                        value += self._cov(
                            paper_id, (current - {out}) | {into}
                        ) - self._cov(paper_id, current)
                    if value > EPSILON and (best is None or value > best[0] + EPSILON):
                        best = (value, into)
                if best is not None:
                    self.assigned[paper_id].remove(out)
                    self.load[out] -= 1
                    self.assigned[paper_id].add(best[1])
                    self.load[best[1]] += 1
                    self.moves += 1
                    improved = True
        return improved

    def swap_pass(self) -> bool:
        """Exchange reviewers between paper pairs when both sides gain."""
        improved = False
        for i, paper_a in enumerate(self.papers):
            scores_a = self.problem.scores[paper_a]
            for paper_b in self.papers[i + 1 :]:
                scores_b = self.problem.scores[paper_b]
                if self._try_swap(paper_a, paper_b, scores_a, scores_b):
                    improved = True
        return improved

    def _try_swap(self, paper_a, paper_b, scores_a, scores_b) -> bool:
        best = None  # (value, a_reviewer, b_reviewer)
        for a in sorted(self.assigned[paper_a]):
            if a not in scores_b or a in self.assigned[paper_b]:
                continue
            for b in sorted(self.assigned[paper_b]):
                if b not in scores_a or b in self.assigned[paper_a]:
                    continue
                value = self.objective.score_weight * (
                    scores_a[b] - scores_a[a] + scores_b[a] - scores_b[b]
                )
                if self.objective.coverage_weight > 0.0:
                    set_a, set_b = self.assigned[paper_a], self.assigned[paper_b]
                    value += self._cov(
                        paper_a, (set_a - {a}) | {b}
                    ) - self._cov(paper_a, set_a)
                    value += self._cov(
                        paper_b, (set_b - {b}) | {a}
                    ) - self._cov(paper_b, set_b)
                if value > EPSILON and (best is None or value > best[0] + EPSILON):
                    best = (value, a, b)
        if best is None:
            return False
        __, a, b = best
        self.assigned[paper_a].remove(a)
        self.assigned[paper_a].add(b)
        self.assigned[paper_b].remove(b)
        self.assigned[paper_b].add(a)
        self.moves += 1
        return True


def greedy_swap_assignment(
    problem: AssignmentProblem,
    objective: AssignmentObjective | None = None,
    max_rounds: int = 30,
) -> Assignment:
    """Greedy seed refined by deterministic local search.

    Each round runs fill, augment, replace and swap passes; the loop
    stops at the first round that changes nothing (every applied move
    strictly improves the lexicographic ``(fill, objective)`` target, so
    convergence is guaranteed; ``max_rounds`` is a hard cap only).
    """
    objective = objective or AssignmentObjective()
    obs = get_obs()
    with obs.span(
        "solver.greedy_swap",
        papers=len(problem.papers()),
        reviewers=len(problem.reviewers()),
    ) as span:
        with obs.span("solver.seed"):
            seed = greedy_assignment(problem)
        search = _LocalSearch(problem, objective)
        search.seed_from(seed)
        with obs.span("solver.improve") as improve_span:
            rounds = 0
            while rounds < max_rounds:
                rounds += 1
                improved = search.fill_pass()
                improved = search.augment_pass() or improved
                improved = search.replace_pass() or improved
                improved = search.swap_pass() or improved
                if not improved:
                    break
            improve_span.set_label("rounds", rounds)
            improve_span.set_label("moves", search.moves)
        span.set_label("moves", search.moves)
        obs.inc("assignment_swap_moves_total", value=float(search.moves))
    return search.to_assignment()


# ----------------------------------------------------------------------
# Exact min-cost-flow path
# ----------------------------------------------------------------------


def min_cost_flow_assignment(
    problem: AssignmentProblem,
    objective: AssignmentObjective | None = None,
) -> Assignment:
    """Exact maximum-coverage, maximum-objective assignment via flow.

    Maximizes the number of filled slots first, then ``score_weight *
    total score - balance_weight * sum(load^2)`` exactly, by successive
    shortest paths (see the module docstring).  The coverage term is
    submodular and not expressible as arc costs; it is ignored here
    (use :func:`greedy_swap_assignment` when it matters).

    Papers and reviewers are indexed in sorted id order, so equal-cost
    alternatives resolve identically however the input dicts were
    assembled.
    """
    objective = objective or AssignmentObjective()
    papers = problem.papers()
    reviewers = problem.reviewers()
    if not reviewers:
        return Assignment(by_paper={p: [] for p in papers})
    obs = get_obs()
    with obs.span(
        "solver.flow",
        papers=len(papers),
        reviewers=len(reviewers),
        balance=objective.balance_weight > 0.0,
    ):
        seats = _route_slots(problem, objective, papers, reviewers)
    return Assignment(
        by_paper={
            paper_id: [reviewers[r] for r in sorted(seats[p])]
            for p, paper_id in enumerate(papers)
        }
    )


#: Heap entry kinds; papers pop before reviewers at equal distance.
_PAPER, _REVIEWER = 0, 1


def _route_slots(
    problem: AssignmentProblem,
    objective: AssignmentObjective,
    papers: list[str],
    reviewers: list[str],
) -> list[set[int]]:
    """Route every slot; returns each paper's seated reviewer indexes.

    Nodes are indexes into ``papers`` and ``reviewers``.  Residual arcs:
    paper -> unseated candidate (``-weight``), reviewer -> each paper it
    sits on (``+weight``: that paper releases it), reviewer -> sink
    (its next slot's price, while under ``max_load``) and paper -> sink
    (``slot_reward``: one more unfilled slot).  Sink arcs are priced
    when a node's label is set, so a search stops as soon as no queued
    label can beat the cheapest path found.
    """
    index = {reviewer_id: r for r, reviewer_id in enumerate(reviewers)}
    # arcs[p]: {reviewer: weight}, inserted (so scanned) in sorted order.
    arcs: list[dict[int, int]] = []
    for paper_id in papers:
        candidates = problem.scores[paper_id]
        arcs.append(
            {
                index[reviewer_id]: round(
                    objective.score_weight * candidates[reviewer_id] * _SCALE
                )
                for reviewer_id in sorted(candidates)
            }
        )
    balance = objective.balance_weight
    max_load = problem.max_load
    # slot_cost[load] prices a reviewer's next slot at that load.
    slot_cost = [
        round(balance * (2 * slot - 1) * _SCALE) for slot in range(1, max_load + 1)
    ]
    # The unfilled-slot price: dominates any achievable difference in
    # score + balance costs across the whole instance.
    max_unit_cost = int(
        objective.score_weight * (_max_score(problem) + 1) * _SCALE
    ) + int(balance * (2 * max_load + 1) * _SCALE)
    slot_reward = (max_unit_cost + 1) * (problem.demand() + 1)

    seats: list[set[int]] = [set() for _ in papers]
    holders: list[list[int]] = [[] for _ in reviewers]  # sorted paper indexes
    load = [0] * len(reviewers)
    # Feasible starting potentials: paper -> reviewer costs top - weight
    # and reviewer -> sink costs price - first price, both >= 0.  The
    # sink's potential never changes: searches stop before settling it.
    top = max((weight for row in arcs for weight in row.values()), default=0)
    paper_potential = [top] * len(papers)
    reviewer_potential = [0] * len(reviewers)
    sink_potential = slot_cost[0]
    # A paper's unfilled-slot arc reaches the sink at its potential + this.
    unfilled = slot_reward - sink_potential
    infinity = float("inf")

    for source in range(len(papers)):
        for _ in range(problem.reviewers_per_paper):
            paper_dist = {source: 0}
            reviewer_dist: dict[int, int] = {}
            taken_from: dict[int, int] = {}  # paper -> reviewer it releases
            taken_by: dict[int, int] = {}  # reviewer -> paper the path seats it on
            settled_papers: list[int] = []
            settled_reviewers: list[int] = []
            # Dijkstra from the source; its own unfilled slot bounds it.
            best = paper_potential[source] + unfilled
            end = (_PAPER, source)
            heap = [(0, _PAPER, source)]
            while heap:
                dist, kind, node = heappop(heap)
                if dist >= best:
                    break
                if kind == _PAPER:
                    if dist > paper_dist[node]:
                        continue
                    settled_papers.append(node)
                    base = dist + paper_potential[node]
                    seated = seats[node]
                    for r, weight in arcs[node].items():
                        if r in seated:
                            continue
                        new = base - weight - reviewer_potential[r]
                        if new < best and new < reviewer_dist.get(r, infinity):
                            reviewer_dist[r] = new
                            taken_by[r] = node
                            heappush(heap, (new, _REVIEWER, r))
                            if load[r] < max_load:
                                reach = (
                                    new
                                    + reviewer_potential[r]
                                    + slot_cost[load[r]]
                                    - sink_potential
                                )
                                if reach < best:
                                    best, end = reach, (_REVIEWER, r)
                else:
                    if dist > reviewer_dist[node]:
                        continue
                    settled_reviewers.append(node)
                    base = dist + reviewer_potential[node]
                    for p in holders[node]:
                        new = base + arcs[p][node] - paper_potential[p]
                        if new < best and new < paper_dist.get(p, infinity):
                            paper_dist[p] = new
                            taken_from[p] = node
                            heappush(heap, (new, _PAPER, p))
                            reach = new + paper_potential[p] + unfilled
                            if reach < best:
                                best, end = reach, (_PAPER, p)
            # Every node left unsettled is at least ``best`` away, so
            # shifting only the settled ones keeps reduced costs >= 0.
            for p in settled_papers:
                paper_potential[p] += paper_dist[p] - best
            for r in settled_reviewers:
                reviewer_potential[r] += reviewer_dist[r] - best
            # Augment backwards from the sink arc the search chose.
            kind, node = end
            if kind == _REVIEWER:
                load[node] += 1
            while True:
                if kind == _REVIEWER:
                    p = taken_by[node]
                    seats[p].add(node)
                    insort(holders[node], p)
                    kind, node = _PAPER, p
                elif node == source:
                    break
                else:
                    r = taken_from[node]
                    seats[node].remove(r)
                    holders[r].remove(node)
                    kind, node = _REVIEWER, r
    return seats


def optimal_assignment(problem: AssignmentProblem) -> Assignment:
    """Exact maximum-coverage, maximum-score assignment via min-cost flow.

    The pure-score special case of :func:`min_cost_flow_assignment`,
    kept as the stable name existing callers and benchmarks use.
    """
    return min_cost_flow_assignment(problem, AssignmentObjective())


def random_assignment(problem: AssignmentProblem, seed: int = 0) -> Assignment:
    """Uniformly random feasible assignment — the quality floor.

    Candidate pools are sorted before the seeded shuffle, so the draw
    depends only on ``seed`` and the problem's *content*, not on dict
    insertion order.
    """
    rng = random_module.Random(seed)
    remaining_load = {r: problem.max_load for r in problem.reviewers()}
    assignment = Assignment(by_paper={p: [] for p in problem.scores})
    papers = problem.papers()
    rng.shuffle(papers)
    for paper_id in papers:
        candidates = sorted(
            r for r in problem.scores[paper_id] if remaining_load[r] > 0
        )
        rng.shuffle(candidates)
        chosen = candidates[: problem.reviewers_per_paper]
        for reviewer_id in chosen:
            remaining_load[reviewer_id] -= 1
        assignment.by_paper[paper_id] = sorted(chosen)
    return assignment


def _max_score(problem: AssignmentProblem) -> float:
    scores = [
        score
        for candidates in problem.scores.values()
        for score in candidates.values()
    ]
    return max(scores, default=0.0)

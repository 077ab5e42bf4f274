"""Conference scenarios with planted ground-truth reviewer sets.

The per-manuscript oracle (:class:`~repro.world.model.GroundTruthOracle`)
says who the best *individual* reviewers are.  The conference workload
needs a stronger kind of ground truth: a whole program — hundreds of
papers against one PC pool — where the *jointly optimal assignment* is
known by construction, so assignment quality is measurable the way
exHarmony benchmarks it (planted truth, not judgment calls).

:func:`generate_conference` plants that truth.  For every paper it
records a ``true_reviewers`` set, chosen COI-free and within each
reviewer's capacity, and :meth:`ConferenceScenario.planted_problem`
emits a score matrix in which every planted (paper, reviewer) pair
strictly outscores every background pair even at the maximum permitted
noise.  Because the planted allocation also fills every slot, it is the
*unique* optimum of the resulting
:class:`~repro.assignment.models.AssignmentProblem`: an exact solver
must recover it pair-for-pair (planted recall 1.0), and a heuristic's
shortfall is exactly measurable.

Metrics: :func:`planted_recall` (fraction of planted pairs recovered),
:func:`precision_at_set` (mean per-paper overlap with the planted set)
and :func:`load_spread` (max − min reviewer load over the pool).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.assignment.models import Assignment, AssignmentProblem, require_set_sizes
from repro.core.models import Manuscript, ManuscriptAuthor
from repro.world.model import GroundTruthOracle, ScholarlyWorld

#: Planted pairs score in [_PLANTED_BASE, _PLANTED_BASE + _UTILITY_BAND];
#: background pairs in (0, _BACKGROUND_CAP].  The gap minus twice the
#: maximum noise amplitude stays positive, which is what makes the
#: planted assignment the unique optimum (see ``planted_problem``).
_PLANTED_BASE = 0.75
_UTILITY_BAND = 0.2
_BACKGROUND_CAP = 0.5
_MAX_NOISE = 0.12


@dataclass(frozen=True)
class ConferenceConfig:
    """Shape of one generated conference.

    Attributes
    ----------
    paper_count:
        Submissions in the program.
    reviewers_per_paper:
        Reviewer-set size every paper needs (``k``).
    max_load:
        Capacity: papers any one PC member may take (``N`` of the CLI's
        ``--capacity N``).
    pool_size:
        PC size.  ``None`` drafts the smallest pool that leaves ~40%
        slack over ``paper_count * reviewers_per_paper`` demand.  The
        pool is drafted on merit: the non-submitting scholars with the
        highest true utility over the program's topic mix.
    score_noise:
        In [0, 1]: fraction of the maximum safe perturbation applied to
        every score.  At 1.0 the planted/background separation shrinks
        to its edge but never inverts — recovery stays information-
        theoretically possible; 0.0 is the clean world.
    candidates_per_paper:
        Background candidates listed per paper beyond the planted set
        (``None`` lists the whole COI-free pool — dense matrices).
    seed:
        Conference-level RNG seed (independent of the world's).
    """

    paper_count: int = 24
    reviewers_per_paper: int = 3
    max_load: int = 2
    pool_size: int | None = None
    score_noise: float = 0.0
    candidates_per_paper: int | None = None
    seed: int = 7

    def __post_init__(self):
        if self.paper_count < 1:
            raise ValueError(f"paper_count must be >= 1, got {self.paper_count}")
        require_set_sizes(reviewers_per_paper=self.reviewers_per_paper, max_load=self.max_load)
        if not 0.0 <= self.score_noise <= 1.0:
            raise ValueError("score_noise must be in [0, 1]")
        if self.candidates_per_paper is not None and self.candidates_per_paper < 0:
            raise ValueError("candidates_per_paper must be >= 0 or None")


@dataclass(frozen=True)
class ConferencePaper:
    """One submission plus its planted truth."""

    paper_id: str
    manuscript: Manuscript
    topic_ids: tuple[str, ...]
    author_ids: tuple[str, ...]
    true_reviewers: tuple[str, ...]


@dataclass(frozen=True)
class ConferenceScenario:
    """A generated conference: papers, PC pool and planted assignments."""

    config: ConferenceConfig
    world: ScholarlyWorld
    papers: tuple[ConferencePaper, ...]
    pool: tuple[str, ...]

    def entries(self) -> list[tuple[str, Manuscript]]:
        """``(paper_id, manuscript)`` pairs for the batch engine."""
        return [(paper.paper_id, paper.manuscript) for paper in self.papers]

    def planted_problem(self) -> AssignmentProblem:
        """The scored matrix whose unique optimum is the planted truth.

        Planted pairs score ``0.75 + 0.2 * utility`` and background
        pairs ``0.5 * utility`` (utilities are the oracle's hidden
        reviewer utilities, in [0, 1]), perturbed by at most
        ``score_noise * 0.12``.  The minimum planted score therefore
        stays strictly above the maximum background score, and since
        the planted allocation fills every slot within capacity, any
        deviation swaps a planted pair for a strictly cheaper
        background pair — the planted truth is the unique optimum of
        both fill count and total score.

        Facet sets (the topic ids a candidate truly covers among the
        paper's topics) ride along for the set-coverage objective.
        """
        oracle = GroundTruthOracle(self.world)
        rng = random.Random(self.config.seed * 31 + 1)
        amplitude = self.config.score_noise * _MAX_NOISE
        scores: dict[str, dict[str, float]] = {}
        facets: dict[str, dict[str, frozenset[str]]] = {}
        for paper in self.papers:
            topic_ids = list(paper.topic_ids)
            author_ids = list(paper.author_ids)
            planted = set(paper.true_reviewers)
            background = [
                candidate
                for candidate in self.pool
                if candidate not in planted
                and candidate not in paper.author_ids
                and not oracle.has_coi(candidate, author_ids)
            ]
            if self.config.candidates_per_paper is not None:
                background.sort(
                    key=lambda c: (-oracle.reviewer_utility(c, topic_ids), c)
                )
                background = background[: self.config.candidates_per_paper]
            row: dict[str, float] = {}
            row_facets: dict[str, frozenset[str]] = {}
            for candidate in sorted(planted):
                utility = oracle.reviewer_utility(candidate, topic_ids)
                base = _PLANTED_BASE + _UTILITY_BAND * utility
                row[candidate] = self._jitter(base, amplitude, rng)
                row_facets[candidate] = self._facets(candidate, topic_ids)
            for candidate in sorted(background):
                utility = oracle.reviewer_utility(candidate, topic_ids)
                base = _BACKGROUND_CAP * utility
                row[candidate] = self._jitter(base, amplitude, rng)
                row_facets[candidate] = self._facets(candidate, topic_ids)
            scores[paper.paper_id] = row
            facets[paper.paper_id] = row_facets
        return AssignmentProblem(
            scores=scores,
            reviewers_per_paper=self.config.reviewers_per_paper,
            max_load=self.config.max_load,
            facets=facets,
        )

    def _facets(self, candidate: str, topic_ids: list[str]) -> frozenset[str]:
        expertise = self.world.authors[candidate].topic_expertise
        return frozenset(t for t in topic_ids if t in expertise)

    @staticmethod
    def _jitter(base: float, amplitude: float, rng: random.Random) -> float:
        value = base + amplitude * rng.uniform(-1.0, 1.0)
        return round(max(value, 1e-6), 6)


def generate_conference(
    world: ScholarlyWorld, config: ConferenceConfig | None = None
) -> ConferenceScenario:
    """Draft a PC pool and a program with planted reviewer sets.

    Planting walks papers in order and gives each the ``k``
    highest-utility COI-free pool members that still have capacity
    (ties by author id), decrementing capacities as it goes — so the
    planted allocation is feasible by construction.  Raises
    ``ValueError`` when the pool cannot support the program (grow
    ``pool_size`` or ``max_load``).
    """
    config = config or ConferenceConfig()
    rng = random.Random(config.seed)
    oracle = GroundTruthOracle(world)
    author_ids = sorted(world.authors)
    demand = config.paper_count * config.reviewers_per_paper
    pool_size = config.pool_size
    if pool_size is None:
        pool_size = min(
            len(author_ids) - config.paper_count,
            max(8, int(demand * 1.4 / config.max_load) + 1),
        )
    if pool_size < 1:
        raise ValueError(
            f"world population {len(author_ids)} cannot seat a PC beside "
            f"{config.paper_count} submitting leads"
        )

    # Submitting leads first: unique names (so the pipeline can verify
    # identity); each paper's topics come from its lead's expertise.
    submitters = [
        author_id
        for author_id in author_ids
        if len(world.authors_by_name(world.authors[author_id].name)) == 1
    ]
    if len(submitters) < config.paper_count:
        raise ValueError(
            f"world has only {len(submitters)} unambiguous submitters; "
            f"need {config.paper_count}"
        )
    leads = rng.sample(submitters, config.paper_count)
    lead_set = set(leads)
    paper_topics = {
        lead_id: sorted(world.authors[lead_id].topic_expertise)[:3]
        for lead_id in leads
    }

    # The PC is drafted on merit, like a real one: the scholars with the
    # highest true utility over the program's topic mix (ties by id).
    # A random pool would break the end-to-end story — the pipeline
    # retrieves candidates by topical relevance, so PC members nobody
    # would pick for these papers are invisible to it.
    conference_topics = sorted(
        {topic for topics in paper_topics.values() for topic in topics}
    )
    draftable = [a for a in author_ids if a not in lead_set]
    if pool_size > len(draftable):
        raise ValueError(
            f"pool_size {pool_size} exceeds the {len(draftable)} scholars "
            f"left once {config.paper_count} leads are excluded"
        )
    draftable.sort(
        key=lambda a: (-oracle.reviewer_utility(a, conference_topics), a)
    )
    pool = tuple(sorted(draftable[:pool_size]))

    capacity = {reviewer: config.max_load for reviewer in pool}
    papers = []
    for index, lead_id in enumerate(leads):
        lead = world.authors[lead_id]
        topics = paper_topics[lead_id]
        planted = _plant_reviewers(
            oracle, pool, capacity, topics, [lead_id], config.reviewers_per_paper
        )
        if planted is None:
            raise ValueError(
                f"cannot plant {config.reviewers_per_paper} reviewers for "
                f"paper {index}: pool exhausted (pool {pool_size}, "
                f"max_load {config.max_load}, demand {demand})"
            )
        for reviewer in planted:
            capacity[reviewer] -= 1
        keywords = tuple(world.ontology.topic(t).label for t in topics)
        affiliation = lead.affiliations[-1]
        journals = world.journal_venues()
        manuscript = Manuscript(
            title=f"Submission {index}: {keywords[0]} in Practice",
            keywords=keywords,
            authors=(
                ManuscriptAuthor(
                    name=lead.name,
                    affiliation=affiliation.institution,
                    country=affiliation.country,
                ),
            ),
            target_venue=journals[0].name if journals else "",
        )
        papers.append(
            ConferencePaper(
                paper_id=f"paper-{index:03d}",
                manuscript=manuscript,
                topic_ids=tuple(topics),
                author_ids=(lead_id,),
                true_reviewers=tuple(sorted(planted)),
            )
        )
    return ConferenceScenario(
        config=config, world=world, papers=tuple(papers), pool=pool
    )


def _plant_reviewers(
    oracle: GroundTruthOracle,
    pool: tuple[str, ...],
    capacity: dict[str, int],
    topic_ids: list[str],
    author_ids: list[str],
    k: int,
) -> list[str] | None:
    """The k best COI-free pool members with remaining capacity, or None."""
    eligible = [
        reviewer
        for reviewer in pool
        if capacity[reviewer] > 0
        and reviewer not in author_ids
        and not oracle.has_coi(reviewer, author_ids)
    ]
    if len(eligible) < k:
        return None
    eligible.sort(key=lambda r: (-oracle.reviewer_utility(r, topic_ids), r))
    return eligible[:k]


# ----------------------------------------------------------------------
# Quality metrics against the planted truth
# ----------------------------------------------------------------------


def planted_recall(
    scenario: ConferenceScenario,
    assignment: Assignment,
    resolve=None,
) -> float:
    """Fraction of planted (paper, reviewer) pairs the assignment found.

    ``resolve`` optionally maps assigned reviewer ids back to world
    author ids (pipeline candidates carry source-level ids — pass
    ``CandidateResolver.world_id``); the planted-matrix path needs no
    mapping.
    """
    total = 0
    hit = 0
    for paper in scenario.papers:
        assigned = assignment.reviewers_of(paper.paper_id)
        if resolve is not None:
            assigned = [resolve(r) for r in assigned]
        assigned_set = {r for r in assigned if r is not None}
        total += len(paper.true_reviewers)
        hit += len(assigned_set & set(paper.true_reviewers))
    return hit / total if total else 0.0


def precision_at_set(
    scenario: ConferenceScenario,
    assignment: Assignment,
    resolve=None,
) -> float:
    """Mean per-paper precision of the assigned set vs the planted set.

    Papers with nothing assigned contribute 0 — an empty set found
    nothing, and skipping it would reward under-assignment.
    """
    if not scenario.papers:
        return 0.0
    total = 0.0
    for paper in scenario.papers:
        assigned = assignment.reviewers_of(paper.paper_id)
        if resolve is not None:
            assigned = [resolve(r) for r in assigned]
        assigned_set = {r for r in assigned if r is not None}
        if assigned_set:
            total += len(assigned_set & set(paper.true_reviewers)) / len(
                assigned_set
            )
    return total / len(scenario.papers)


def load_spread(assignment: Assignment, pool: tuple[str, ...]) -> int:
    """Max minus min papers-per-reviewer across the whole pool.

    Pool members with no assignment count as load 0 — an idle PC member
    is spread, not absence of data.
    """
    if not pool:
        return 0
    loads = assignment.loads()
    values = [loads.get(reviewer, 0) for reviewer in pool]
    return max(values) - min(values)

"""The four benchmark workloads.

Each function drives one :class:`~benchmarks.harness.runner.Pass`
through the repo's public entry points with their defaults, except the
settings named here.  Every input comes from the ``--seed``: the world
seed, which manuscripts are submitted, the Zipf draws, the write
targets, the conference seeds and the scale queries.  The program sees
only the generated inputs; ground truth (the world oracle, the planted
reviewer sets) is read only by the untimed verification.

``--smoke`` shrinks every workload (300 scholars, about 10 ops, a
1,000-scholar scale world, 2 queries) so the harness tests run quickly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass

from repro import assignment
from repro.api.handlers import MinaretApi
from repro.baselines.evaluation import CandidateResolver
from repro.baselines.metrics import ndcg_at_k
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.obs import get_obs
from repro.scale.bench import popular_labels
from repro.scale.plane import ScalePlane
from repro.scholarly.registry import ScholarlyHub
from repro.world.conference import ConferenceConfig, generate_conference, planted_recall
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world
from repro.world.model import GroundTruthOracle, ScholarlyWorld
from repro.world.streaming import StreamingWorld

from benchmarks.harness.layers import read_counters
from benchmarks.harness.runner import Pass, timed

#: Scholars in a smoke-sized world.
SMOKE_AUTHORS = 300
#: Zipf exponent of request popularity and of scale-query labels.
ZIPF_S = 1.1
#: Ranked-list depth for nDCG and for scale-plane queries.
K = 10

COLD = {}
WARM = {"warm_cache": True}


class OpFailed(Exception):
    """An API call answered with a non-2xx status."""


def _rng(p: Pass, *purpose: object) -> random.Random:
    """The seeded stream for one purpose (string seeds hash stably)."""
    return random.Random("/".join(map(str, (*purpose, p.seed))))


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / rank**ZIPF_S for rank in range(1, count + 1)]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Deployment:
    world: ScholarlyWorld
    hub: ScholarlyHub
    api: MinaretApi


def _deploy(authors: int, seed: int, parts: dict) -> Deployment:
    world = timed(
        parts, "world.generate_s", generate_world, WorldConfig(author_count=authors, seed=seed)
    )
    hub = timed(parts, "scholarly.deploy_s", ScholarlyHub.deploy, world)
    return Deployment(world, hub, MinaretApi(hub))


@dataclass(frozen=True)
class Submission:
    """A manuscript by one world author, as the editor's form sends it."""

    author_id: str
    topic_ids: tuple[str, ...]
    payload: dict


def _submissions(world: ScholarlyWorld, rng: random.Random) -> list[Submission]:
    """One manuscript per unambiguous author with at least 3 topics.

    Three keywords from the author's expertise, the author's latest
    affiliation and the first journal as target; shuffled by ``rng``.
    """
    names = Counter(author.name for author in world.authors.values())
    journal = world.journal_venues()[0].name
    eligible = [
        world.authors[author_id]
        for author_id in sorted(world.authors)
        if names[world.authors[author_id].name] == 1
        and len(world.authors[author_id].topic_expertise) >= 3
    ]
    rng.shuffle(eligible)
    submissions = []
    for author in eligible:
        topics = tuple(sorted(author.topic_expertise)[:3])
        keywords = [world.ontology.topic(topic).label for topic in topics]
        affiliation = author.affiliations[-1]
        submissions.append(
            Submission(
                author.author_id,
                topics,
                {
                    "title": f"A Study of {keywords[0]}",
                    "keywords": keywords,
                    "authors": [
                        {
                            "name": author.name,
                            "affiliation": affiliation.institution,
                            "country": affiliation.country,
                        }
                    ],
                    "target_venue": journal,
                },
            )
        )
    return submissions


def _recommend(api: MinaretApi, manuscript: dict, config: dict) -> dict:
    response = api.handle(
        "POST", "/api/v1/recommend", {"manuscript": manuscript, "config": config}
    )
    if not response.ok:
        raise OpFailed(f"HTTP {response.status}: {response.body}")
    return response.body


def _signature(body: dict) -> list[tuple[str, float]]:
    return [(row["candidate_id"], row["total_score"]) for row in body["recommendations"]]


def _cold_signatures(api: MinaretApi, submissions, indexes) -> dict:
    """Cold ranked lists for ``indexes``; a failure stands in as its text."""
    signatures = {}
    for index in indexes:
        try:
            signatures[index] = _signature(_recommend(api, submissions[index].payload, COLD))
        except OpFailed as exc:
            signatures[index] = str(exc)
    return signatures


class _MemoOntology:
    """An ontology view with memoised neighbourhood lookups.

    The ground-truth oracle walks ontology neighbourhoods for every
    scholar it grades.  Neighbour lists are pure, so caching them
    changes no value; it keeps the untimed input generation and
    verification affordable.
    """

    def __init__(self, ontology):
        self._ontology = ontology
        self.neighbors = functools.cache(ontology.neighbors)
        self._contains = functools.cache(ontology.__contains__)

    def __contains__(self, topic_id: str) -> bool:
        return self._contains(topic_id)

    def __getattr__(self, name: str):
        return getattr(self._ontology, name)


def _oracle_view(world: ScholarlyWorld) -> ScholarlyWorld:
    """The same world with a memoised ontology, for oracle-driven code."""
    return dataclasses.replace(world, ontology=_MemoOntology(world.ontology))


class Oracle:
    """nDCG@10 against the world's hidden reviewer utilities.

    The gains are exactly those of
    :func:`repro.baselines.evaluation.evaluate_recommendation`: every
    scholar but the manuscript's authors, graded by
    :meth:`GroundTruthOracle.reviewer_utility`.  Calling that function
    would also rank the oracle's ideal reviewers, doubling the untimed
    grading, and would need a hub to resolve ids that scale-plane hits
    already carry as world ids.
    """

    def __init__(self, world: ScholarlyWorld):
        self._authors = list(world.authors)
        self._oracle = GroundTruthOracle(_oracle_view(world))

    def ndcg(self, ranked: list[str], topic_ids, author_ids) -> float:
        topics = list(topic_ids)
        excluded = set(author_ids)
        gains = {
            author_id: self._oracle.reviewer_utility(author_id, topics)
            for author_id in self._authors
            if author_id not in excluded
        }
        return ndcg_at_k(ranked, gains, K)


# ----------------------------------------------------------------------
# recommend-cold
# ----------------------------------------------------------------------


def recommend_cold(p: Pass) -> None:
    """Distinct manuscripts through ``POST /api/v1/recommend``, config ``{}``.

    The paper's on-the-fly mode: every request re-crawls the simulated
    sources.
    """
    authors = SMOKE_AUTHORS if p.smoke else 2_000
    quality_ops = 10 if p.smoke else 30
    # 150 ops leave 15 samples above the reported 90th percentile.
    p.min_ops = 10 if p.smoke else 150
    state = p.setup(lambda parts: _deploy(authors, p.seed, parts))
    submissions = _submissions(state.world, _rng(p, "recommend-cold"))
    p.sizes = {"authors": authors, "manuscripts": len(submissions) - 1, "config": COLD}
    p.record_inputs([s.payload for s in submissions])
    warmup, measured = submissions[0], submissions[1:]
    p.warmup(_recommend, state.api, warmup.payload, COLD)
    p.start(lambda: read_counters(state.api.obs, state.hub.http))
    answered = []
    empty = 0
    for index in itertools.count():
        if p.done:
            break
        submission = measured[index % len(measured)]
        ok, body = p.op(_recommend, state.api, submission.payload, COLD)
        empty += ok and not body["recommendations"]
        if index < quality_ops:
            answered.append((submission, body))
    p.stop()
    if not p.verify:
        return

    p.check("every answer ranks reviewers", empty == 0, f"{empty} empty answers")
    resolver = CandidateResolver(state.hub)
    oracle = Oracle(state.world)
    for submission, body in answered:
        ranked = [] if body is None else [row["candidate_id"] for row in body["recommendations"]]
        p.ndcg.append(
            oracle.ndcg(
                resolver.world_ids(ranked),
                submission.topic_ids,
                [submission.author_id],
            )
        )


# ----------------------------------------------------------------------
# recommend-warm
# ----------------------------------------------------------------------


def _epoch_requests(p: Pass, epoch: int, catalogue: int, length: int) -> list[int]:
    """The Zipf-drawn manuscript indexes of one epoch's requests."""
    return _rng(p, "recommend-warm", "epoch", epoch).choices(
        range(catalogue), weights=_zipf_weights(catalogue), k=length
    )


def _most_requested(requests: list[int], count: int) -> list[int]:
    """The ``count`` most requested indexes, ties to the more popular."""
    counts = Counter(requests)
    return sorted(counts, key=lambda index: (-counts[index], index))[:count]


def _write_targets(p: Pass, world: ScholarlyWorld, write: int, scholars: int):
    """``(author_id, topic_id)`` of the scholars who publish in one write."""
    chosen = _rng(p, "recommend-warm", "write", write).sample(sorted(world.authors), scholars)
    return [(author_id, world.authors[author_id].primary_topic()) for author_id in chosen]


def _publish(dynamics: WorldDynamics, world: ScholarlyWorld, targets) -> None:
    for author_id, topic_id in targets:
        dynamics.publish(author_id, topic_id, world.config.current_year, count=2)


@dataclass
class _Epoch:
    requests: list[int] = dataclasses.field(default_factory=list)
    first: dict = dataclasses.field(default_factory=dict)
    consistent: bool = True


def recommend_warm(p: Pass) -> None:
    """Zipf-popular manuscripts on the shared warm path, with writes.

    Every ``epoch_length`` requests, seeded scholars publish (untimed
    input generation) and ``hub.refresh_services()`` re-indexes (timed).
    The pass runs whole epochs until ``--seconds`` are measured.
    """
    authors = SMOKE_AUTHORS if p.smoke else 2_000
    catalogue = 20 if p.smoke else 150
    epoch_length = 10 if p.smoke else 150
    checked = 3 if p.smoke else 10
    publishers = 5
    quality_ops = 5 if p.smoke else 30
    # Two epochs at least, so every pass times a write and re-checks
    # the cache after it.
    p.min_ops = 2 * epoch_length
    plan: dict = {}

    def first_epoch_reference(state: Deployment) -> None:
        # The first set-up repetition is a separate, identically seeded
        # deployment: its cold answers are the first epoch's reference.
        submissions = _submissions(state.world, _rng(p, "recommend-warm"))
        check = _most_requested(_epoch_requests(p, 0, catalogue, epoch_length), checked)
        plan.update(
            submissions=submissions,
            check=check,
            reference=_cold_signatures(state.api, submissions, check),
        )

    state = p.setup(
        lambda parts: _deploy(authors, p.seed, parts), on_discard=first_epoch_reference
    )
    submissions = plan["submissions"]
    p.sizes = {
        "authors": authors,
        "catalogue": catalogue,
        "epoch_requests": epoch_length,
        "publishers_per_write": publishers,
        "papers_per_publisher": 2,
        "zipf_s": ZIPF_S,
        "config": WARM,
    }
    p.record_inputs(
        {
            "manuscripts": [s.payload for s in submissions[: catalogue + 1]],
            "epoch0": _epoch_requests(p, 0, catalogue, epoch_length),
            "write0": _write_targets(p, state.world, 0, publishers),
        }
    )
    api, hub = state.api, state.hub
    dynamics = WorldDynamics(state.world, seed=p.seed)
    p.warmup(_recommend, api, submissions[catalogue].payload, WARM)
    p.start(lambda: read_counters(api.obs, hub.http))
    epochs: list[_Epoch] = []
    answered: dict[int, dict] = {}
    for epoch_index in itertools.count():
        epoch = _Epoch()
        epochs.append(epoch)
        # Whole epochs only: each starts on a just-invalidated cache, so a
        # run cut mid-epoch would weigh misses by where the clock fell.
        for index in _epoch_requests(p, epoch_index, catalogue, epoch_length):
            ok, body = p.op(_recommend, api, submissions[index].payload, WARM)
            epoch.requests.append(index)
            if not ok:
                continue
            signature = _signature(body)
            if epoch.first.setdefault(index, signature) != signature:
                epoch.consistent = False
            if index not in answered and len(answered) < quality_ops:
                answered[index] = body
        if p.done:
            break
        _publish(dynamics, state.world, _write_targets(p, state.world, epoch_index, publishers))
        p.write(hub.refresh_services)
    p.stop()
    if not p.verify:
        return

    p.check(
        "warm answers repeat within an epoch",
        all(epoch.consistent for epoch in epochs),
    )
    first = epochs[0]
    compared = [index for index in plan["check"] if index in first.first]
    p.check(
        "first epoch matches a cold deployment",
        bool(compared)
        and all(first.first[index] == plan["reference"][index] for index in compared),
        f"{len(compared)} most-requested manuscripts compared",
    )
    if len(epochs) > 1:
        # A fresh world with every write replayed, deployed from scratch:
        # its services never went through refresh_services().
        world = generate_world(WorldConfig(author_count=authors, seed=p.seed))
        replay = WorldDynamics(world, seed=p.seed)
        for write in range(len(epochs) - 1):
            _publish(replay, world, _write_targets(p, world, write, publishers))
        reference_api = MinaretApi(ScholarlyHub.deploy(world))
        final = epochs[-1]
        check = _most_requested(final.requests, checked)
        reference = _cold_signatures(reference_api, submissions, check)
        p.check(
            "final epoch matches a cold deployment after the same writes",
            bool(check)
            and all(final.first.get(index) == reference[index] for index in check),
            f"epoch {len(epochs) - 1}: {len(check)} most-requested manuscripts compared",
        )
    resolver = CandidateResolver(hub)
    oracle = Oracle(state.world)
    for index, body in answered.items():
        submission = submissions[index]
        ranked = [row["candidate_id"] for row in body["recommendations"]]
        p.ndcg.append(
            oracle.ndcg(
                resolver.world_ids(ranked),
                submission.topic_ids,
                [submission.author_id],
            )
        )


# ----------------------------------------------------------------------
# assign-conference
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Chair:
    world: ScholarlyWorld
    pipeline: Minaret
    resolver: CandidateResolver


def _chair(authors: int, seed: int, parts: dict) -> _Chair:
    deployment = _deploy(authors, seed, parts)
    hub = deployment.hub
    return _Chair(
        deployment.world,
        Minaret(hub, config=PipelineConfig(warm_cache=True)),
        CandidateResolver(hub),
    )


CAPACITY = 3


def _assign(chair: _Chair, scenario):
    pool = set(scenario.pool)
    return assignment.assign_conference(
        chair.pipeline,
        scenario.entries(),
        reviewers_per_paper=3,
        capacity=CAPACITY,
        solver="flow",
        workers=2,
        # The PC-only rule of `minaret assign --conference`.
        candidate_filter=lambda candidate_id: chair.resolver.world_id(candidate_id) in pool,
    )


def _coi_flagged(result) -> dict[str, set[str]]:
    """Per paper, the candidates its pipeline run rejected for a COI."""
    return {
        paper_id: {
            decision.candidate_id
            for decision in run.filter_decisions
            if any(reason.startswith("COI:") for reason in decision.reasons)
        }
        for paper_id, run in result.results
    }


def _violations(chair: _Chair, scenario, assigned, flagged) -> dict[str, list[str]]:
    """Capacity, PC-membership and conflict-of-interest breaches."""
    pool = set(scenario.pool)
    found: dict[str, list[str]] = {"capacity": [], "pc": [], "coi": []}
    for reviewer, load in assigned.loads().items():
        if load > CAPACITY:
            found["capacity"].append(f"{reviewer} has {load} papers")
    for paper_id, reviewers in assigned.by_paper.items():
        for reviewer in reviewers:
            if chair.resolver.world_id(reviewer) not in pool:
                found["pc"].append(f"{paper_id}: {reviewer} is not on the PC")
            if reviewer in flagged.get(paper_id, ()):
                found["coi"].append(f"{paper_id}: {reviewer} was flagged for COI")
    return found


def assign_conference(p: Pass) -> None:
    """Whole conferences through ``assign_conference`` on one shared pipeline.

    One op is one conference: 96 papers recommended on 2 threads, then
    solved by min-cost flow under capacity 3 with the PC-only filter.
    """
    authors = SMOKE_AUTHORS
    papers = 12 if p.smoke else 96
    p.min_ops = 2 if p.smoke else 3
    chair = p.setup(lambda parts: _chair(authors, p.seed, parts))
    # Planting walks the oracle; on the memoised view it yields the same
    # conference several times faster.
    planting_world = _oracle_view(chair.world)

    def conference_seed(number: int) -> int:
        return _rng(p, "assign-conference", number).randrange(1 << 30)

    def conference(number: int):
        config = ConferenceConfig(paper_count=papers, seed=conference_seed(number))
        return generate_conference(planting_world, config)

    p.sizes = {
        "authors": authors,
        "papers_per_conference": papers,
        "reviewers_per_paper": 3,
        "capacity": CAPACITY,
        "solver": "flow",
        "workers": 2,
    }
    p.record_inputs([conference_seed(number) for number in range(8)])
    p.warmup(_assign, chair, conference(0))
    p.start(lambda: read_counters(get_obs(), chair.pipeline.sources.http))
    # Only small summaries outlive an op, so peak RSS stays the program's.
    outcomes = []
    ranked: dict[str, list[str]] = {}
    for number in itertools.count(1):
        if p.done:
            break
        scenario = conference(number)
        ok, result = p.op(_assign, chair, scenario)
        if not ok:
            continue
        outcomes.append((scenario, result.assignment, _coi_flagged(result)))
        if not ranked:
            ranked = {
                paper_id: [scored.candidate.candidate_id for scored in run.ranked]
                for paper_id, run in result.results
            }
        del result
    p.stop()
    if not p.verify:
        return

    violations: dict[str, list[str]] = {"capacity": [], "pc": [], "coi": []}
    for scenario, assigned, flagged in outcomes:
        for kind, found in _violations(chair, scenario, assigned, flagged).items():
            violations[kind].extend(found)
    for kind, name in (
        ("capacity", "no reviewer exceeds capacity"),
        ("pc", "every reviewer is on the PC"),
        ("coi", "no paper gets a reviewer flagged for COI"),
    ):
        p.check(name, not violations[kind], "; ".join(violations[kind][:3]))
    recalls = [
        planted_recall(scenario, assigned, resolve=chair.resolver.world_id)
        for scenario, assigned, __ in outcomes
    ]
    p.extras["planted_recall"] = sum(recalls) / len(recalls) if recalls else 0.0
    p.extras["planted_recall_per_conference"] = recalls
    # Quality: every paper's ranked list in the first measured conference.
    oracle = Oracle(chair.world)
    first = outcomes[0][0] if outcomes else None
    for paper in first.papers if first else ():
        p.ndcg.append(
            oracle.ndcg(
                chair.resolver.world_ids(ranked[paper.paper_id]),
                paper.topic_ids,
                paper.author_ids,
            )
        )
    if not p.ndcg:
        p.ndcg.append(0.0)


# ----------------------------------------------------------------------
# scale-10k
# ----------------------------------------------------------------------

BLOCK_SIZE = 64
SHARDS = 16
POOL_LIMIT = 200


@dataclass(frozen=True)
class _Query:
    keywords: dict[str, float]
    submitters: tuple[str, ...]

    def run(self, plane: ScalePlane, pool_limit: int | None = POOL_LIMIT):
        hits, __ = plane.topk(
            self.keywords, list(self.submitters), k=K, pool_limit=pool_limit
        )
        return hits


def _queries(world: StreamingWorld, rng: random.Random):
    """Distinct queries: 3 Zipf-drawn popular labels, 2 seeded submitters."""
    labels = popular_labels(world, count=40)
    weights = _zipf_weights(len(labels))
    seen = set()
    while True:
        chosen: list[str] = []
        while len(chosen) < 3:
            label = rng.choices(labels, weights=weights)[0]
            if label not in chosen:
                chosen.append(label)
        submitters = tuple(
            f"author-{index}" for index in rng.sample(range(world.author_count), 2)
        )
        key = (tuple(chosen), submitters)
        if key in seen:
            continue
        seen.add(key)
        yield _Query(dict(zip(chosen, (1.0, 0.8, 0.5))), submitters)


def _scale_plane(authors: int, seed: int, parts: dict) -> ScalePlane:
    world = timed(
        parts,
        "world.generate_s",
        StreamingWorld,
        WorldConfig(author_count=authors, seed=seed),
        block_size=BLOCK_SIZE,
    )
    plane = ScalePlane(world, n_shards=SHARDS)
    timed(parts, "scale.ingest_s", plane.ingest)
    return plane


def _profiles_world(world: StreamingWorld) -> ScholarlyWorld:
    """Every scholar's profile as an eager world, for the oracle."""
    authors = {}
    for index in range(world.author_count):
        profile = world.profile(index)
        authors[profile.author_id] = profile
    return ScholarlyWorld(
        config=world.config,
        ontology=world.ontology,
        authors=authors,
        venues=dict(world.venues),
        publications={},
        reviews={},
    )


def scale_10k(p: Pass) -> None:
    """Top-k search over a streamed 10^4-scholar world on 16 shards.

    ``StreamingWorld`` keeps its default block cache, so each query's
    pool spans more cohort blocks than the cache holds.
    """
    authors = 1_000 if p.smoke else 10_000
    p.min_ops = 2
    plane = p.setup(lambda parts: _scale_plane(authors, p.seed, parts))
    world = plane.world
    queries = _queries(world, _rng(p, "scale-10k"))
    warmup = next(queries)
    p.sizes = {
        "authors": authors,
        "block_size": BLOCK_SIZE,
        "cache_blocks": world.cache_blocks,
        "shards": SHARDS,
        "k": K,
        "pool_limit": POOL_LIMIT,
    }
    preview = itertools.islice(_queries(world, _rng(p, "scale-10k")), 4)
    p.record_inputs([dataclasses.astuple(query) for query in preview])
    p.warmup(warmup.run, plane)
    p.start(lambda: read_counters(get_obs(), world=world))
    answered = []
    while not p.done:
        query = next(queries)
        ok, hits = p.op(query.run, plane)
        answered.append((query, hits if ok else None))
    p.stop()
    if not p.verify:
        return

    # Reference: one shard and a block cache that holds every block.
    blocks = -(-authors // BLOCK_SIZE)
    reference = ScalePlane(
        StreamingWorld(
            WorldConfig(author_count=authors, seed=p.seed),
            block_size=BLOCK_SIZE,
            cache_blocks=blocks,
        ),
        n_shards=1,
    )
    reference.ingest()
    mismatched = [
        index
        for index, (query, hits) in enumerate(answered)
        if hits is not None and hits != query.run(reference)
    ]
    p.check(
        "top-k equals a 1-shard full-cache reference",
        not mismatched,
        f"{len(answered)} queries, mismatched: {mismatched[:5]}",
    )
    # The 1,000-scholar check world: exact against brute force, and
    # cheap enough to grade many queries against the oracle (grading
    # one query on 10^4 scholars costs about a second).
    small = ScalePlane(
        StreamingWorld(WorldConfig(author_count=1_000, seed=p.seed), block_size=BLOCK_SIZE),
        n_shards=SHARDS,
    )
    small.ingest()
    checks = _queries(small.world, _rng(p, "scale-10k", "check"))
    p.check(
        "uncapped top-k equals brute force on 1,000 scholars",
        all(
            query.run(small, pool_limit=None)
            == small.brute_force_topk(query.keywords, list(query.submitters), k=K)
            for query in itertools.islice(checks, 2)
        ),
    )
    oracle = Oracle(_profiles_world(small.world))
    for query in itertools.islice(checks, 4 if p.smoke else 16):
        topics = [small.world.ontology.find(label).topic_id for label in query.keywords]
        ranked = [hit.candidate_id for hit in query.run(small)]
        p.ndcg.append(oracle.ndcg(ranked, topics, query.submitters))


#: Workload name -> (function, why it is in the benchmark).
WORKLOADS = {
    "recommend-cold": (
        recommend_cold,
        "the paper's on-the-fly mode: each distinct manuscript re-crawls the six "
        "simulated sources, so web, identity and extraction do the work",
    ),
    "recommend-warm": (
        recommend_warm,
        "the deployed steady state: Zipf-popular manuscripts on the warm cache, "
        "with writes that invalidate it and a timed re-index",
    ),
    "assign-conference": (
        assign_conference,
        "the chair's batch path: 96-paper conferences through batch recommend, "
        "problem build and min-cost flow on a 2-thread fan-out",
    ),
    "scale-10k": (
        scale_10k,
        "population-scale search: each query's pool spans more streamed world "
        "blocks than the default block cache holds",
    ),
}

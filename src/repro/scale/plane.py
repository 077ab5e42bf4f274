"""The scale plane: end-to-end reviewer search over a streamed world.

Composes the scale-plane pieces into the paper's §2 query path at
population scale:

1. **Ingest** walks the :class:`~repro.world.streaming.StreamingWorld`
   once, block by block, and keeps only *index* structures: the sharded
   interest index (keyword → scholar postings), and the COI screen's
   posting maps — ``institution → (start, end, candidate)`` intervals
   and per-candidate co-author sets — both sharded by
   :func:`~repro.scale.sharding.shard_of`.  While each block is in
   hand, ingest also keeps one compact **scoring row** per scholar —
   ``(name, log1p(citations), review count, on-time rate)``, the exact
   values :func:`~repro.scoring.features.build_candidate_features`
   yields for the scoring components.  No scholar object stays
   resident: rows and postings are both O(world) but a few hundred
   bytes per scholar, never publications or reviews.
2. **Retrieval** runs the shard-parallel ranked union
   (:meth:`ShardedInvertedIndex.search`) over the query keywords.
3. **COI screening** fans per-shard: each shard screens its own pool
   members against its own co-author sets and probes its own
   institution postings with the submitters' affiliation intervals.
4. **Scoring** never touches the streaming world: phase A looks each
   survivor's scoring row up in its shard's table, a barrier takes the
   pool maxima (scores are pool-normalised, so maxima are global state),
   and phase B computes totals and a per-shard top-k heap in parallel,
   merged under the canonical ``(-score, candidate_id)`` tie-break.

Per-query work is proportional to the *retrieved pool*, not the world:
that is the sub-linear per-query cost EXP-SCALE measures.  The whole
path is bit-identical at any worker/shard count, and
:meth:`ScalePlane.brute_force_topk` recomputes it with none of the
machinery — a full scan over every scholar — as the equality reference.

The shard-parallel phases are pure-Python and CPU-bound, so the plane
supports two execution regimes.  Threads (or inline execution) share
the parent's live index structures; the deterministic **cost units**
accounted per shard (postings scanned, features built, candidates
scored) feed :func:`modeled_speedup`, the LPT makespan model of what an
N-worker pool *should* achieve.  A
:class:`~repro.concurrency.process.ProcessExecutor` (detected via
``requires_pickling``) measures the model against wall-clock: the
plane routes the retrieval and screening fan-outs through small
picklable task descriptors (:mod:`repro.scale.worker`) executed against
worker-local plane replicas rehydrated from the world seed, with
results — and the workers' telemetry deltas — merged by the parent
bit-identically to the in-process path.  Scoring stays parent-side: a
row lookup and a few multiplies cost less than pickling the row.
EXP-SCALE reports the measured speedup next to the modeled one.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.concurrency import Executor, SequentialExecutor
from repro.obs import get_obs
from repro.scale.sharding import ShardedInvertedIndex, merge_scored, shard_of
from repro.scholarly.records import (
    Metrics,
    SourceName,
    compute_h_index,
    compute_i10_index,
)

#: Scale-plane component weights (relevance, impact, experience,
#: timeliness).  Fixed — the plane ranks with one canonical formula so
#: every execution strategy is comparable float-for-float.
_W_RELEVANCE = 0.45
_W_IMPACT = 0.25
_W_EXPERIENCE = 0.20
_W_TIMELINESS = 0.10

#: Cost units per posting scanned / feature built / candidate scored —
#: coarse relative weights for the deterministic makespan model.
_COST_POSTING = 1.0
_COST_FEATURE = 25.0
_COST_SCORE = 5.0


@dataclass(frozen=True)
class PoolMember:
    """One retrieved candidate with its raw retrieval relevance."""

    candidate_id: str
    relevance: float


@dataclass(frozen=True)
class ScaleVerdict:
    """COI outcome for one pool member."""

    candidate_id: str
    has_conflict: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScaleHit:
    """One ranked recommendation."""

    candidate_id: str
    name: str
    total_score: float
    components: dict[str, float]


@dataclass
class QueryStats:
    """Deterministic accounting of one query's work, per shard."""

    pool_size: int = 0
    screened_out: int = 0
    scored: int = 0
    shard_costs: list[float] = field(default_factory=list)

    @property
    def sequential_cost(self) -> float:
        return sum(self.shard_costs)


def lpt_makespan(costs: list[float], workers: int) -> float:
    """Makespan of longest-processing-time-first over ``workers`` slots.

    The deterministic stand-in for "how long do these shard tasks take
    on an N-worker pool" — LPT is the classic 4/3-approximation and,
    crucially here, a pure function of the cost list.
    """
    if not costs:
        return 0.0
    if workers <= 1:
        return sum(costs)
    heap = [0.0] * min(workers, len(costs))
    for cost in sorted(costs, reverse=True):
        heapq.heappush(heap, heapq.heappop(heap) + cost)
    return max(heap)


def modeled_speedup(costs: list[float], workers: int) -> float:
    """Sequential cost over the ``workers``-slot LPT makespan."""
    makespan = lpt_makespan(costs, workers)
    return sum(costs) / makespan if makespan > 0 else 1.0


def score_rows(
    rows: Iterable[tuple],
    maxima: tuple[float, float, float, float],
    k: int,
) -> list["ScaleHit"]:
    """Phase B of scoring: normalise, weight, and cut one shard's rows.

    A pure function of ``(rows, pool maxima, k)`` — shared verbatim by
    the sharded scorer and the brute-force reference, so both produce
    the same floats by construction.
    """
    max_rel, max_imp, max_exp, max_tml = maxima
    hits = []
    for candidate_id, name, rel, imp, exp, tml in rows:
        components = {
            "relevance": rel / max_rel if max_rel > 0 else 0.0,
            "impact": imp / max_imp if max_imp > 0 else 0.0,
            "experience": exp / max_exp if max_exp > 0 else 0.0,
            "timeliness": tml / max_tml if max_tml > 0 else 0.0,
        }
        total = round(
            _W_RELEVANCE * components["relevance"]
            + _W_IMPACT * components["impact"]
            + _W_EXPERIENCE * components["experience"]
            + _W_TIMELINESS * components["timeliness"],
            6,
        )
        hits.append(
            ScaleHit(
                candidate_id=candidate_id,
                name=name,
                total_score=total,
                components=components,
            )
        )
    return heapq.nsmallest(k, hits, key=lambda h: (-h.total_score, h.candidate_id))


class ScalePlane:
    """Sharded reviewer search over one streamed world.

    Example
    -------
    >>> from repro.world import StreamingWorld, WorldConfig
    >>> plane = ScalePlane(StreamingWorld(WorldConfig(author_count=64)), n_shards=4)
    >>> plane.ingest()["index"]["documents"]
    64
    >>> hits, stats = plane.topk(["Name Disambiguation"], [], k=3)
    >>> len(hits) <= 3
    True
    """

    def __init__(
        self,
        world,
        n_shards: int = 1,
        executor: Executor | None = None,
        name: str = "scale",
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.world = world
        self.n_shards = int(n_shards)
        self._executor = executor or SequentialExecutor()
        self._name = name
        # A process executor cannot run the index closures (they capture
        # live shard state); the plane drives the process fan-out itself
        # through task descriptors, and the inner components run
        # sequentially inside whichever process owns them.
        self._remote = bool(getattr(self._executor, "requires_pickling", False))
        inner = SequentialExecutor() if self._remote else self._executor
        if self._remote:
            # If the process pool ever degrades to an in-process
            # fallback, run_scale_task must still find a plane to run
            # descriptors against.
            from repro.scale.worker import register_parent_plane

            register_parent_plane(self)
        self._inner = inner
        self.index = ShardedInvertedIndex(n_shards, executor=inner, name=name)
        # Scoring rows and COI posting maps, partitioned like the index:
        # shard s holds only candidates with shard_of(id) == s.
        self._rows: list[dict[str, tuple[str, float, float, float]]] = [
            {} for __ in range(n_shards)
        ]
        self._institutions: list[dict[str, list[tuple[int, int, str]]]] = [
            {} for __ in range(n_shards)
        ]
        self._coauthors: list[dict[str, frozenset[str]]] = [
            {} for __ in range(n_shards)
        ]
        self._ingested = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self, shard_ids: Iterable[int] | None = None) -> dict:
        """Stream the world once into the sharded index structures.

        Blocks are realised transiently (not via the world's LRU), so
        peak memory during ingest is one block plus the indexes and
        scoring rows being built.  ``shard_ids`` restricts ingestion to
        the named shards — the worker-bootstrap hook for pools whose
        scheduler routes shard tasks to dedicated workers; with the
        default ``None`` every shard is built (required for the stock
        process pool, which hands any task to any worker, and for every
        parent plane, which scores from its own rows).  Returns the
        post-ingest :meth:`stats` snapshot.
        """
        return self._ingest(shard_ids, with_rows=True)

    def _ingest(self, shard_ids: Iterable[int] | None, with_rows: bool) -> dict:
        """:meth:`ingest`, optionally without scoring rows.

        Worker replicas (:meth:`ScaleWorkerBootstrap.hydrate`) pass
        ``with_rows=False``: they only retrieve and screen, while the
        parent scores from its own rows.
        """
        world = self.world
        obs = get_obs()
        ontology = world.ontology
        wanted = None if shard_ids is None else set(shard_ids)
        with obs.span("scale.ingest", shards=self.n_shards):
            block_count = -(-world.config.author_count // world.block_size)
            for block_id in range(block_count):
                block = world._realize_block(block_id)
                for author in block.authors.values():
                    shard_id = shard_of(author.author_id, self.n_shards)
                    if wanted is not None and shard_id not in wanted:
                        continue
                    interests = {
                        ontology.topic(topic_id).label: weight
                        for topic_id, weight in sorted(
                            author.topic_expertise.items()
                        )
                    }
                    self.index.add(author.author_id, interests)
                    postings = self._institutions[shard_id]
                    for aff in author.affiliations:
                        end = aff.end_year if aff.end_year is not None else 10_000
                        postings.setdefault(aff.institution, []).append(
                            (aff.start_year, end, author.author_id)
                        )
                    self._coauthors[shard_id][author.author_id] = frozenset(
                        block.coauthors[author.author_id]
                    )
                    if with_rows:
                        self._rows[shard_id][author.author_id] = _scoring_row(
                            block, author
                        )
        self._ingested = True
        return self.stats()

    def refresh(self) -> int:
        """Plane-level refresh: bump every shard epoch.

        Scoring rows are pure functions of the world seed, so they stay
        valid across epochs.
        """
        return self.index.bump_epoch()

    def stats(self) -> dict:
        index_stats = self.index.stats()
        return {
            "shards": self.n_shards,
            "authors": self.world.config.author_count,
            "index": index_stats,
            "scoring_rows": sum(len(m) for m in self._rows),
            "coi_institution_terms": sum(len(m) for m in self._institutions),
            "coi_candidates": sum(len(m) for m in self._coauthors),
        }

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def retrieve(
        self,
        keywords: dict[str, float] | list[str],
        limit: int | None = None,
    ) -> list[PoolMember]:
        """Shard-parallel ranked retrieval over the interest index."""
        terms, weights = _normalize_query(keywords)
        if self._remote:
            postings = self._retrieve_remote(terms, weights, limit)
        else:
            postings = self.index.search(terms, query_weights=weights, limit=limit)
        return [PoolMember(p.doc_id, p.weight) for p in postings]

    def _retrieve_remote(
        self,
        terms: list[str],
        weights: dict[str, float] | None,
        limit: int | None,
    ) -> list:
        """Process-backend retrieval: descriptor fan-out, same merge.

        Global idf is computed **parent-side** (workers only hold their
        own replica, but idf must reflect the global corpus — it does
        either way since replicas are full, yet parent-side computation
        keeps the invariant explicit and the task payload self-contained)
        and shipped in each :class:`~repro.scale.worker.RetrieveShardTask`.
        """
        from repro.scale.worker import RetrieveShardTask, run_scale_task

        obs = get_obs()
        with obs.span("scale.retrieve", shards=self.n_shards, terms=len(terms)):
            idf = self.index.global_idf(terms)
            descriptors = [
                RetrieveShardTask(
                    shard_id=shard_id,
                    terms=tuple(terms),
                    weights=weights,
                    idf=idf,
                )
                for shard_id in range(self.n_shards)
            ]
            score_maps = self._executor.map(run_scale_task, descriptors)
            return merge_scored(score_maps, limit)

    def screen(
        self, pool: list[PoolMember], submitter_ids: list[str]
    ) -> list[ScaleVerdict]:
        """Shard-parallel COI screening of the retrieved pool.

        Per shard: probe the shard's institution postings with every
        submitter affiliation interval, then test each pool member for
        co-authorship with (or identity to) a submitter.  Verdicts come
        back in pool order.
        """
        submitters = set(submitter_ids)
        submitter_affs: list[tuple[str, int, int]] = []
        for submitter_id in submitter_ids:
            try:
                author = self.world.profile(self.world.author_index(submitter_id))
            except KeyError:
                continue
            for aff in author.affiliations:
                end = aff.end_year if aff.end_year is not None else 10_000
                submitter_affs.append((aff.institution, aff.start_year, end))

        partitions: dict[int, list[tuple[int, PoolMember]]] = {}
        for position, member in enumerate(pool):
            shard_id = shard_of(member.candidate_id, self.n_shards)
            partitions.setdefault(shard_id, []).append((position, member))
        obs = get_obs()
        with obs.span(
            "scale.coi", shards=len(partitions), pool=len(pool)
        ):
            tasks = sorted(partitions.items())
            if self._remote:
                from repro.scale.worker import ScreenShardTask, run_scale_task

                per_shard = self._executor.map(
                    run_scale_task,
                    [
                        ScreenShardTask(
                            shard_id=shard_id,
                            members=tuple(members),
                            submitters=frozenset(submitters),
                            submitter_affs=tuple(submitter_affs),
                        )
                        for shard_id, members in tasks
                    ],
                )
            else:
                per_shard = self._executor.map(
                    lambda task: self.screen_shard(
                        task[0], task[1], submitters, submitter_affs
                    ),
                    tasks,
                )
        ordered: list[ScaleVerdict | None] = [None] * len(pool)
        for shard_verdicts in per_shard:
            for position, verdict in shard_verdicts:
                ordered[position] = verdict
        return ordered

    def screen_shard(
        self,
        shard_id: int,
        members: list[tuple[int, PoolMember]],
        submitters: set[str],
        submitter_affs: list[tuple[str, int, int]],
    ) -> list[tuple[int, ScaleVerdict]]:
        """Screen one shard's pool slice (the unit both regimes run).

        Probes this shard's institution postings with the submitters'
        affiliation intervals, then tests each member for identity with
        or co-authorship of a submitter.  Takes every query-scoped input
        explicitly so :class:`~repro.scale.worker.ScreenShardTask` can
        carry them across a process boundary unchanged.
        """
        inst_postings = self._institutions[shard_id]
        coauthors = self._coauthors[shard_id]
        overlapping: dict[str, set[str]] = {}
        for institution, start, end in submitter_affs:
            for c_start, c_end, candidate_id in inst_postings.get(institution, ()):
                if c_start <= end and start <= c_end:
                    overlapping.setdefault(candidate_id, set()).add(institution)
        verdicts = []
        for position, member in members:
            reasons: list[str] = []
            if member.candidate_id in submitters:
                reasons.append("submitting-author")
            shared = sorted(
                coauthors.get(member.candidate_id, frozenset()) & submitters
            )
            reasons.extend(f"coauthor:{a}" for a in shared)
            reasons.extend(
                f"institution:{i}"
                for i in sorted(overlapping.get(member.candidate_id, ()))
            )
            verdicts.append(
                (
                    position,
                    ScaleVerdict(
                        candidate_id=member.candidate_id,
                        has_conflict=bool(reasons),
                        reasons=tuple(reasons),
                    ),
                )
            )
        return verdicts

    def candidate_of(self, candidate_id: str):
        """A pipeline :class:`~repro.core.models.Candidate` realised
        from the streamed world (the owning block comes via the LRU).

        The bridge to the paper's pipeline; the query path scores from
        ingest-time rows instead and never calls this.
        """
        from repro.core.models import Candidate
        from repro.scholarly.records import MergedProfile

        scholar = self.world.scholar(candidate_id)
        author = scholar.author
        citations = [p.citation_count for p in scholar.publications]
        pubs = [
            {
                "id": p.pub_id,
                "title": p.title,
                "year": p.year,
                "keywords": list(p.keywords),
                "venue": self.world.venues[p.venue_id].name,
            }
            for p in scholar.publications
        ]
        venue_counts: dict[str, int] = {}
        on_time = 0
        for review in scholar.reviews:
            venue = self.world.venues[review.venue_id].name
            venue_counts[venue] = venue_counts.get(venue, 0) + 1
            on_time += 1 if review.on_time else 0
        ontology = self.world.ontology
        interests = tuple(
            ontology.topic(t).label for t in sorted(author.topic_expertise)
        )
        profile = MergedProfile(
            canonical_name=author.name,
            source_ids=((SourceName.DBLP, candidate_id),),
            affiliations=author.affiliations,
            interests=interests,
            metrics=Metrics(
                citations=sum(citations),
                h_index=compute_h_index(citations),
                i10_index=compute_i10_index(citations),
            ),
            publication_ids=tuple(p.pub_id for p in scholar.publications),
            review_ids=tuple(r.review_id for r in scholar.reviews),
        )
        return Candidate(
            candidate_id=candidate_id,
            name=author.name,
            profile=profile,
            scholar_publications=pubs,
            dblp_publications=pubs,
            review_count=len(scholar.reviews),
            on_time_rate=(
                round(on_time / len(scholar.reviews), 4)
                if scholar.reviews
                else None
            ),
            venues_reviewed=[
                {"venue": venue, "count": count}
                for venue, count in sorted(venue_counts.items())
            ],
        )

    def topk(
        self,
        keywords: dict[str, float] | list[str],
        submitter_ids: list[str],
        k: int = 10,
        pool_limit: int | None = None,
    ) -> tuple[list[ScaleHit], QueryStats]:
        """The full sharded query path: retrieve → screen → score.

        Returns the top-``k`` hits in canonical order plus the
        deterministic per-shard cost accounting.
        """
        stats = QueryStats()
        terms, __ = _normalize_query(keywords)
        # Cost: postings scanned per shard during retrieval.
        shard_posting_cost = [0.0] * self.n_shards
        for term in dict.fromkeys(terms):
            for posting in self.index.postings(term):
                shard_posting_cost[
                    shard_of(posting.doc_id, self.n_shards)
                ] += _COST_POSTING

        pool = self.retrieve(keywords, limit=pool_limit)
        stats.pool_size = len(pool)
        verdicts = self.screen(pool, submitter_ids)
        survivors = [
            member
            for member, verdict in zip(pool, verdicts)
            if not verdict.has_conflict
        ]
        stats.screened_out = len(pool) - len(survivors)
        hits, shard_work = self._score(keywords, survivors, k)
        stats.scored = len(survivors)
        stats.shard_costs = [
            posting_cost + work
            for posting_cost, work in zip(shard_posting_cost, shard_work)
        ]
        return hits, stats

    def component_rows(
        self, shard_id: int, members: list[PoolMember]
    ) -> list[tuple]:
        """Phase A of scoring for one shard: look up the ingest-time rows.

        Returns ``(candidate_id, name, relevance, log_citations,
        review_experience, timeliness)`` per member — the row shape
        :func:`score_rows` and the brute-force reference share.
        """
        table = self._rows[shard_id]
        rows = []
        for member in members:
            name, *components = table[member.candidate_id]
            rows.append((member.candidate_id, name, member.relevance, *components))
        return rows

    def _score(
        self,
        keywords: dict[str, float] | list[str],
        survivors: list[PoolMember],
        k: int,
    ) -> tuple[list[ScaleHit], list[float]]:
        """Two-phase shard-parallel scoring with a global-maxima barrier.

        Both phases run parent-side for every backend: the parent always
        ingests, so it holds every row, and a row costs less to score
        than to pickle.  Phase A looks up each shard's raw components;
        the barrier takes the pool maxima (normalisation couples every
        candidate to every other, so this is the one genuinely global
        step); phase B computes totals and a per-shard top-k heap; the
        merge folds the per-shard heaps under the canonical tie-break.
        """
        if not survivors:
            return [], [0.0] * self.n_shards
        obs = get_obs()
        partitions: dict[int, list[PoolMember]] = {}
        for member in survivors:
            partitions.setdefault(
                shard_of(member.candidate_id, self.n_shards), []
            ).append(member)
        tasks = sorted(partitions.items())
        shard_work = [0.0] * self.n_shards
        with obs.span(
            "scale.score", shards=len(tasks), candidates=len(survivors)
        ):
            # Phase A: raw components per shard, from the ingest rows.
            per_shard_rows = [
                self.component_rows(shard_id, members)
                for shard_id, members in tasks
            ]

            # Barrier: pool maxima across every shard.
            maxima = (
                max(r[2] for rows in per_shard_rows for r in rows),
                max(r[3] for rows in per_shard_rows for r in rows),
                max(r[4] for rows in per_shard_rows for r in rows),
                max(r[5] for rows in per_shard_rows for r in rows),
            )

            # Phase B: totals and per-shard top-k.
            per_shard_topk = self._inner.map(
                lambda rows: score_rows(rows, maxima, k), per_shard_rows
            )
        for (shard_id, members), rows in zip(tasks, per_shard_rows):
            shard_work[shard_id] += len(rows) * (_COST_FEATURE + _COST_SCORE)
        merged = heapq.nsmallest(
            k,
            (hit for shard_hits in per_shard_topk for hit in shard_hits),
            key=lambda h: (-h.total_score, h.candidate_id),
        )
        return merged, shard_work

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------

    def brute_force_topk(
        self,
        keywords: dict[str, float] | list[str],
        submitter_ids: list[str],
        k: int = 10,
    ) -> list[ScaleHit]:
        """The machinery-free reference: a full scan over every scholar.

        No sharding, no fan-out, no index *structure* — just the same
        formulas over the whole population.  Only usable on small worlds
        (it materialises everyone); the equality
        ``topk(...) == brute_force_topk(...)`` whenever ``pool_limit``
        is off is the plane's correctness anchor.
        """
        terms, weights = _normalize_query(keywords)
        term_list = list(dict.fromkeys(terms))
        total_docs = self.world.config.author_count
        ontology = self.world.ontology
        submitters = set(submitter_ids)

        df = {term: 0 for term in term_list}
        all_interests: list[tuple[str, dict[str, float]]] = []
        for index in range(total_docs):
            author_id = f"author-{index}"
            interests = {
                ontology.topic(t).label: w
                for t, w in sorted(
                    self.world.profile(index).topic_expertise.items()
                )
            }
            all_interests.append((author_id, interests))
            for term in term_list:
                if term in interests:
                    df[term] += 1

        from repro.storage.inverted import idf_of

        idf = {
            term: idf_of(total_docs, count)
            for term, count in df.items()
            if count
        }

        submitter_affs = []
        for submitter_id in submitter_ids:
            author = self.world.profile(self.world.author_index(submitter_id))
            for aff in author.affiliations:
                end = aff.end_year if aff.end_year is not None else 10_000
                submitter_affs.append((aff.institution, aff.start_year, end))

        rows = []
        for author_id, interests in all_interests:
            relevance = 0.0
            for term in terms:
                weight = interests.get(term)
                if weight is None or term not in idf:
                    continue
                relevance += (
                    float((weights or {}).get(term, 1.0)) * weight * idf[term]
                )
            if relevance == 0.0:
                continue
            if author_id in submitters:
                continue
            scholar = self.world.scholar(author_id)
            if scholar.coauthor_ids & submitters:
                continue
            conflicted = False
            for aff in scholar.author.affiliations:
                end = aff.end_year if aff.end_year is not None else 10_000
                for __, s_start, s_end in (
                    entry
                    for entry in submitter_affs
                    if entry[0] == aff.institution
                ):
                    if aff.start_year <= s_end and s_start <= end:
                        conflicted = True
                        break
                if conflicted:
                    break
            if conflicted:
                continue
            citations = [p.citation_count for p in scholar.publications]
            on_time = sum(1 for r in scholar.reviews if r.on_time)
            rows.append(
                (
                    author_id,
                    scholar.author.name,
                    relevance,
                    math.log1p(sum(citations)),
                    float(len(scholar.reviews)),
                    (
                        round(on_time / len(scholar.reviews), 4)
                        if scholar.reviews
                        else 0.0
                    ),
                )
            )
        if not rows:
            return []
        maxima = (
            max(r[2] for r in rows),
            max(r[3] for r in rows),
            max(r[4] for r in rows),
            max(r[5] for r in rows),
        )
        return score_rows(rows, maxima, k)


def _scoring_row(block, author) -> tuple[str, float, float, float]:
    """One scholar's scoring row, read off their realised block.

    ``(name, log1p(total citations), review count, on-time rate)`` —
    the values :func:`~repro.scoring.features.build_candidate_features`
    derives from :meth:`ScalePlane.candidate_of`, without building the
    candidate.
    """
    author_id = author.author_id
    citations = sum(
        block.publications[p].citation_count
        for p in block.pubs_by_author[author_id]
    )
    reviews = block.reviews_by_author[author_id]
    on_time = sum(1 for r in reviews if block.reviews[r].on_time)
    return (
        author.name,
        math.log1p(citations),
        float(len(reviews)),
        round(on_time / len(reviews), 4) if reviews else 0.0,
    )


def _normalize_query(
    keywords: dict[str, float] | list[str],
) -> tuple[list[str], dict[str, float] | None]:
    if isinstance(keywords, dict):
        return list(keywords), dict(keywords)
    return list(keywords), None

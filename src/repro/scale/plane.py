"""The scale plane: end-to-end reviewer search over a streamed world.

Composes the scale-plane pieces into the paper's §2 query path at
population scale:

1. **Ingest** walks the :class:`~repro.world.streaming.StreamingWorld`
   once, block by block, and keeps only *index* structures: the interest
   index (keyword → scholar postings, one
   :class:`~repro.storage.inverted.InvertedIndex`), and the COI screen's
   per-scholar tables — a tuple of ``(institution, start, end)``
   affiliation rows and a co-author set.  While each block is in hand,
   ingest also keeps one compact **scoring row** per scholar —
   ``(name, log1p(citations), review count, on-time rate)``, the exact
   values :func:`~repro.scoring.features.build_candidate_features`
   yields for the scoring components.  No scholar object stays
   resident: rows and postings are both O(world) but a few hundred
   bytes per scholar, never publications or reviews.
2. **Retrieval** runs the index's ranked union over the query keywords.
3. **COI screening** reads the submitters' affiliation rows from that
   table and tests each pool member's identity, co-authors and own
   affiliation rows against them.
4. **Scoring** never touches the streaming world: it looks each
   survivor's scoring row up, takes the pool maxima (scores are
   pool-normalised), totals every row and builds hits only for the
   top-k under the canonical ``(-score, candidate_id)`` tie-break.

Past retrieval's posting scan, per-query work is proportional to the
*retrieved pool*, not the world: that is the sub-linear per-query cost
EXP-SCALE measures.
:meth:`ScalePlane.brute_force_topk` recomputes the same answer with
none of the machinery — a full scan over every scholar — as the
equality reference.

Each phase is one pass over one partition and opens one span per
query — ``scale.retrieve``, ``scale.coi`` and ``scale.score`` — from
which EXP-SCALE splits a query's measured wall time.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.obs import get_obs
from repro.scholarly.records import (
    Metrics,
    SourceName,
    compute_h_index,
    compute_i10_index,
)
from repro.storage.inverted import InvertedIndex, idf_of

#: Scale-plane component weights (relevance, impact, experience,
#: timeliness).  Fixed — the plane ranks with one canonical formula so
#: the query path and its reference are comparable float-for-float.
_W_RELEVANCE = 0.45
_W_IMPACT = 0.25
_W_EXPERIENCE = 0.20
_W_TIMELINESS = 0.10

#: :attr:`ScaleHit.components` keys, in the order the weights above list them.
_COMPONENTS = ("relevance", "impact", "experience", "timeliness")


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


@dataclass(frozen=True, slots=True)
class ScaleHit:
    """One ranked recommendation."""

    candidate_id: str
    name: str
    total_score: float
    components: dict[str, float]


@dataclass
class QueryStats:
    """Counts of one query's work."""

    pool_size: int = 0
    screened_out: int = 0
    scored: int = 0


def score_rows(
    rows: Iterable[tuple],
    maxima: tuple[float, float, float, float],
    k: int,
) -> list["ScaleHit"]:
    """Normalise, weight and cut scoring rows to the top ``k``.

    A pure function of ``(rows, pool maxima, k)`` — shared verbatim by
    the query path and the brute-force reference, so both produce the
    same floats by construction.  Every row is totalled; hits and their
    component dicts are built only for the ``k`` kept.
    """
    max_rel, max_imp, max_exp, max_tml = maxima
    ranked = []
    for candidate_id, name, rel, imp, exp, tml in rows:
        components = (
            rel / max_rel if max_rel > 0 else 0.0,
            imp / max_imp if max_imp > 0 else 0.0,
            exp / max_exp if max_exp > 0 else 0.0,
            tml / max_tml if max_tml > 0 else 0.0,
        )
        total = round(
            _W_RELEVANCE * components[0]
            + _W_IMPACT * components[1]
            + _W_EXPERIENCE * components[2]
            + _W_TIMELINESS * components[3],
            6,
        )
        # Candidate ids are unique, so comparisons stop at the id.
        ranked.append((-total, candidate_id, name, components))
    return [
        ScaleHit(candidate_id, name, -neg, dict(zip(_COMPONENTS, components)))
        for neg, candidate_id, name, components in heapq.nsmallest(k, ranked)
    ]


class ScalePlane:
    """Reviewer search over one streamed world.

    Parameters
    ----------
    world:
        The :class:`~repro.world.streaming.StreamingWorld` to serve.
    n_shards:
        Validated (``n_shards < 1`` raises :class:`ValueError`) and
        otherwise ignored: the plane is one partition.  Hash-sharding
        its index and screen never answered a query faster than one
        partition did (EXP-SCALE, *Shards — removed*), so the shards
        were removed; the keyword stays only because the benchmark
        harness still passes it.

    :meth:`ingest` must run exactly once before :meth:`retrieve`,
    :meth:`screen`, :meth:`component_rows` or :meth:`topk`;
    :meth:`candidate_of` and :meth:`brute_force_topk` read the world
    directly.

    Example
    -------
    >>> from repro.world import StreamingWorld, WorldConfig
    >>> plane = ScalePlane(StreamingWorld(WorldConfig(author_count=64)))
    >>> plane.ingest()["index"]["documents"]
    64
    >>> hits, stats = plane.topk(["Name Disambiguation"], [], k=3)
    >>> len(hits) <= 3
    True
    """

    def __init__(self, world, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.world = world
        self.index = InvertedIndex()
        self._rows: dict[str, tuple[str, float, float, float]] = {}
        self._affiliations: dict[str, tuple[tuple[str, int, int], ...]] = {}
        self._coauthors: dict[str, frozenset[str]] = {}
        self._institution_count = 0
        self._ingested = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self) -> dict:
        """Stream the world once into the index structures.

        Blocks are realised transiently (not via the world's LRU), so
        peak memory during ingest is one block plus the indexes and
        scoring rows being built.  Returns the post-ingest :meth:`stats`
        snapshot.  A plane ingests once; a second call raises
        :class:`RuntimeError` rather than duplicate every posting.
        """
        if self._ingested:
            raise RuntimeError("ScalePlane.ingest() already ran on this plane")
        world = self.world
        ontology = world.ontology
        # One int object per distinct year, not two per affiliation row.
        years: dict[int, int] = {}
        with get_obs().span("scale.ingest"):
            block_count = -(-world.config.author_count // world.block_size)
            for block_id in range(block_count):
                block = world._realize_block(block_id)
                for author in block.authors.values():
                    interests = {
                        ontology.topic(topic_id).label: weight
                        for topic_id, weight in sorted(
                            author.topic_expertise.items()
                        )
                    }
                    self.index.add(author.author_id, interests)
                    rows = []
                    for aff in author.affiliations:
                        end = aff.end_year if aff.end_year is not None else 10_000
                        start = years.setdefault(aff.start_year, aff.start_year)
                        rows.append((aff.institution, start, years.setdefault(end, end)))
                    self._affiliations[author.author_id] = tuple(rows)
                    self._coauthors[author.author_id] = frozenset(
                        block.coauthors[author.author_id]
                    )
                    self._rows[author.author_id] = _scoring_row(block, author)
        self._institution_count = len(
            {row[0] for rows in self._affiliations.values() for row in rows}
        )
        self._ingested = True
        return self.stats()

    def stats(self) -> dict:
        return {
            "authors": self.world.config.author_count,
            "index": self.index.stats(),
            "scoring_rows": len(self._rows),
            "coi_institution_terms": self._institution_count,
            "coi_candidates": len(self._coauthors),
        }

    def _require_ingested(self) -> None:
        if not self._ingested:
            raise RuntimeError(
                "ScalePlane has not ingested its world: call ingest() first"
            )

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def retrieve(
        self,
        keywords: dict[str, float] | list[str],
        limit: int | None = None,
    ) -> list[PoolMember]:
        """Ranked retrieval over the interest index."""
        self._require_ingested()
        terms, weights = _normalize_query(keywords)
        with get_obs().span("scale.retrieve", terms=len(terms)):
            postings = self.index.search(terms, query_weights=weights, limit=limit)
        return [PoolMember(p.doc_id, p.weight) for p in postings]

    def screen(
        self, pool: list[PoolMember], submitter_ids: list[str]
    ) -> list[ScaleVerdict]:
        """COI screening of the retrieved pool, in pool order.

        Reads the submitters' affiliation rows from the ingest-time table
        (an id the world never issued has none), then tests each pool
        member for identity with, or co-authorship of, a submitter, and
        its own rows against theirs (same institution, inclusive years;
        an open end counts as year 10,000).  Reasons come in that order:
        ``submitting-author``, then ``coauthor:<id>`` and
        ``institution:<name>``, each sorted.
        """
        self._require_ingested()
        with get_obs().span("scale.coi", pool=len(pool)):
            affiliations, coauthors = self._affiliations, self._coauthors
            submitters = set(submitter_ids)
            submitter_spans: dict[str, list[tuple[int, int]]] = {}
            for submitter_id in submitter_ids:
                for institution, start, end in affiliations.get(submitter_id, ()):
                    submitter_spans.setdefault(institution, []).append((start, end))
            verdicts = []
            for member in pool:
                candidate_id = member.candidate_id
                shared = coauthors.get(candidate_id, frozenset()) & submitters
                institutions = set()
                for institution, start, end in affiliations.get(candidate_id, ()):
                    for s_start, s_end in submitter_spans.get(institution, ()):
                        if s_start <= end and start <= s_end:
                            institutions.add(institution)
                if not (shared or institutions or candidate_id in submitters):
                    verdicts.append(ScaleVerdict(candidate_id, False, ()))
                    continue
                reasons = ["submitting-author"] if candidate_id in submitters else []
                reasons.extend(f"coauthor:{a}" for a in sorted(shared))
                reasons.extend(f"institution:{i}" for i in sorted(institutions))
                verdicts.append(ScaleVerdict(candidate_id, True, tuple(reasons)))
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
        """The full query path: retrieve → screen → score.

        Returns the top-``k`` hits in canonical order plus the query's
        pool, screened and scored counts.
        """
        stats = QueryStats()
        pool = self.retrieve(keywords, limit=pool_limit)
        stats.pool_size = len(pool)
        verdicts = self.screen(pool, submitter_ids)
        survivors = [
            member
            for member, verdict in zip(pool, verdicts)
            if not verdict.has_conflict
        ]
        stats.screened_out = len(pool) - len(survivors)
        hits = self._score(survivors, k)
        stats.scored = len(survivors)
        return hits, stats

    def component_rows(self, members: list[PoolMember]) -> list[tuple]:
        """Look up the ingest-time scoring rows of ``members``.

        Returns ``(candidate_id, name, relevance, log_citations,
        review_experience, timeliness)`` per member — the row shape
        :func:`score_rows` and the brute-force reference share.
        """
        self._require_ingested()
        rows = []
        for member in members:
            name, *components = self._rows[member.candidate_id]
            rows.append((member.candidate_id, name, member.relevance, *components))
        return rows

    def _score(self, survivors: list[PoolMember], k: int) -> list[ScaleHit]:
        """Score the survivors against their pool maxima and keep the top ``k``."""
        if not survivors:
            return []
        with get_obs().span("scale.score", candidates=len(survivors)):
            rows = self.component_rows(survivors)
            return score_rows(rows, _pool_maxima(rows), k)

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

        No index, no posting maps, no ingest-time rows — just the same
        formulas over the whole population, recomputed from each
        scholar's realised profile.  Only usable on small worlds (it
        materialises everyone); the equality
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

        idf = {
            term: idf_of(total_docs, count)
            for term, count in df.items()
            if count
        }

        submitter_affs = []
        for submitter_id in submitter_ids:
            try:
                author = self.world.profile(self.world.author_index(submitter_id))
            except KeyError:
                continue
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
        return score_rows(rows, _pool_maxima(rows), k)


def _pool_maxima(rows: list[tuple]) -> tuple[float, float, float, float]:
    """Per-component maxima over a pool's scoring rows."""
    return (
        max(r[2] for r in rows),
        max(r[3] for r in rows),
        max(r[4] for r in rows),
        max(r[5] for r in rows),
    )


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
    """``(terms, weights)`` of a query; a plain list weighs every term 1.0.

    Every weight must be a finite number > 0, as every posting weight
    must be: a zero-weight term would retrieve scholars whose only
    match adds nothing to their relevance, which the brute-force scan
    (rightly) never considers.
    """
    if not isinstance(keywords, dict):
        return list(keywords), None
    for term, weight in keywords.items():
        if not (
            isinstance(weight, (int, float)) and math.isfinite(weight) and weight > 0
        ):
            raise ValueError(
                f"query weight must be a finite number > 0, got {weight!r} for {term!r}"
            )
    return list(keywords), dict(keywords)

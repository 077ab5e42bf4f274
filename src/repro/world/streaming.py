"""Streaming world generation: million-scholar worlds without the memory.

:func:`~repro.world.generator.generate_world` materialises every
scholar, publication and review eagerly — O(world) memory and startup
time before the first query can run.  That caps benchmarks at a few
hundred candidates, while MINARET's pitch is searching the *whole*
online scholarly population.

:class:`StreamingWorld` derives any entity on demand from the seed:

**Per-entity child RNGs.**  Every entity draws from its own
:class:`random.Random` seeded by ``blake2b(seed, kind, entity_id)``
(:func:`child_rng`), so realising ``author-7`` never consumes draws
that ``author-3`` depends on — materialisation order cannot change
content, which is what makes lazy realisation sound.  The eager
counterpart :meth:`materialize` walks the same derivations front to
back; tests prove the two bit-identical under arbitrary access orders.

**Cohort blocks.**  Co-authorship needs *other* scholars.  A fully
global team draw would force O(world) work to answer "which
publications does scholar S appear on"; instead scholars are
partitioned into fixed cohort blocks of :attr:`block_size` indices and
teams are drawn from topic-compatible members of the lead's block.
Realising one scholar realises exactly one block — bounded work and
memory, with co-authorship (and therefore COI structure) intact.

**LRU of realised scholars.**  Realised blocks live in a bounded LRU
(:attr:`cache_blocks` blocks); eviction is invisible because
re-realisation is a pure function of ``(seed, block)``.

Profiles alone (attributes, expertise, affiliations — no publications)
are much cheaper than full scholars, but a query path that calls
:meth:`scholar` per candidate re-realises a whole block per cache miss,
and a population-scale pool spans far more blocks than the LRU holds.
Consumers that must answer many queries should instead walk the blocks
once and keep what they need: :class:`~repro.scale.plane.ScalePlane`
ingests every block a single time and keeps compact per-scholar
scoring rows, so its queries never realise a block.  :meth:`stats`
reports hits, realisations, evictions and realisation seconds, so a
regression back to query-time realisation shows up at a glance.

Only the venue pool (O(``journals_count + conferences_count``)) and the
ontology are derived eagerly — both are O(config), not O(world).
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.ontology.data import build_seed_ontology
from repro.scholarly.records import (
    Publication,
    ReviewRecord,
    Venue,
    VenueType,
)
from repro.world.config import WorldConfig
from repro.world.generator import (
    _generate_venues,
    _make_title,
    _pick_venue,
    _poisson,
    _research_topics,
    _sample_affiliations,
    _sample_coverage,
    _sample_expertise,
    _weighted_topic,
)
from repro.world.model import ScholarlyWorld, WorldAuthor
from repro.world.names import (
    COLLISION_GIVEN_NAMES,
    FAMILY_NAMES,
    GIVEN_NAMES,
    MIDDLE_INITIALS,
    POPULAR_FAMILY_NAMES,
)


def child_rng(seed: int, *key: object) -> random.Random:
    """An independent RNG for one entity, derived from the master seed.

    The stream is a pure function of ``(seed, key)`` — stable across
    processes and Python versions (unlike built-in ``hash``), so any
    worker on any machine realises the same entity identically.
    """
    digest = hashlib.blake2b(
        repr((seed, *key)).encode("utf-8"), digest_size=16
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class StreamedScholar:
    """One fully realised scholar: the streamed counterpart of the
    eager world's per-author view.

    ``publications`` and ``reviews`` come oldest-first in the canonical
    ``(year, id)`` order :meth:`ScholarlyWorld.finalize` uses, so the
    two generators are comparable entity-by-entity.
    """

    author: WorldAuthor
    publications: tuple[Publication, ...]
    reviews: tuple[ReviewRecord, ...]
    coauthor_ids: frozenset[str]


@dataclass
class _Block:
    """All derived state of one realised cohort block."""

    authors: dict[str, WorldAuthor] = field(default_factory=dict)
    publications: dict[str, Publication] = field(default_factory=dict)
    reviews: dict[str, ReviewRecord] = field(default_factory=dict)
    pubs_by_author: dict[str, list[str]] = field(default_factory=dict)
    reviews_by_author: dict[str, list[str]] = field(default_factory=dict)
    coauthors: dict[str, set[str]] = field(default_factory=dict)


class StreamingWorld:
    """Lazy, seed-derived scholarly world.

    Parameters
    ----------
    config:
        The usual :class:`~repro.world.config.WorldConfig`; only
        ``author_count`` scales — everything else keeps its meaning.
    block_size:
        Scholars per cohort block (the co-authorship neighbourhood and
        the realisation granule).
    cache_blocks:
        LRU bound on realised blocks; memory is
        O(``cache_blocks × block_size``) scholars, never O(world).
    intern_strings:
        Route per-entity identifier strings through :func:`sys.intern`
        so repeated realisation shares one object per id (EXP-SCALE
        measures the savings).

    Example
    -------
    >>> world = StreamingWorld(WorldConfig(author_count=10_000))
    >>> world.scholar("author-4217").author.career_start >= 1989
    True
    """

    def __init__(
        self,
        config: WorldConfig | None = None,
        block_size: int = 32,
        cache_blocks: int = 64,
        intern_strings: bool = True,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if cache_blocks < 1:
            raise ValueError(f"cache_blocks must be >= 1, got {cache_blocks}")
        self.config = config or WorldConfig()
        self.block_size = int(block_size)
        self.cache_blocks = int(cache_blocks)
        self._sid = sys.intern if intern_strings else (lambda s: s)
        self.ontology = build_seed_ontology()
        self._research_topics = _research_topics(self.ontology)
        # Venue pool: O(config), derived once from its own child stream.
        self.venues: dict[str, Venue] = _generate_venues(
            self.config,
            child_rng(self.config.seed, "venues"),
            self.ontology,
            self._research_topics,
        )
        self._venue_by_topic: dict[str, list[str]] = {}
        for venue in self.venues.values():
            for topic_id in venue.topic_ids:
                self._venue_by_topic.setdefault(topic_id, []).append(venue.venue_id)
        self._all_venue_ids = sorted(self.venues)
        journals = [
            v for v in self.venues.values() if v.venue_type == VenueType.JOURNAL
        ]
        self._journal_by_topic: dict[str, list[str]] = {}
        for venue in journals:
            for topic_id in venue.topic_ids:
                self._journal_by_topic.setdefault(topic_id, []).append(venue.venue_id)
        self._all_journal_ids = sorted(v.venue_id for v in journals)
        self._blocks: OrderedDict[int, _Block] = OrderedDict()
        self.blocks_hit = 0
        self.blocks_realized = 0
        self.blocks_evicted = 0
        self.realize_seconds = 0.0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    @property
    def author_count(self) -> int:
        return self.config.author_count

    def author_ids(self):
        """All author ids, in index order (a generator — O(1) memory)."""
        for index in range(self.config.author_count):
            yield self._sid(f"author-{index}")

    def author_index(self, author_id: str) -> int:
        """The index behind an ``author-N`` id (raises on unknown ids)."""
        try:
            index = int(author_id.removeprefix("author-"))
        except ValueError:
            raise KeyError(author_id) from None
        if not 0 <= index < self.config.author_count:
            raise KeyError(author_id)
        return index

    def block_of(self, index: int) -> int:
        return index // self.block_size

    # ------------------------------------------------------------------
    # Profiles (cheap: no publications or reviews)
    # ------------------------------------------------------------------

    def _name(self, index: int) -> str:
        """The scholar's full name, derived per index.

        The first ``collision_group_count × collision_group_size``
        indices share one popular-style name per group — the same
        planted-ambiguity layout as the eager generator.  Remaining
        names are drawn independently per index; unlike the eager
        ``NameFactory`` there is no global used-set, so *natural*
        collisions can occur at realistic (low) rates — at streaming
        scale that is a feature of the workload, not a bug.
        """
        config = self.config
        planted = config.collision_group_count * config.collision_group_size
        if index < planted:
            group = index // config.collision_group_size
            rng = child_rng(config.seed, "collision", group)
            return self._sid(
                f"{rng.choice(COLLISION_GIVEN_NAMES)} "
                f"{rng.choice(POPULAR_FAMILY_NAMES)}"
            )
        rng = child_rng(config.seed, "name", index)
        given = rng.choice(GIVEN_NAMES)
        family = rng.choice(FAMILY_NAMES)
        if rng.random() < 0.3:
            return self._sid(f"{given} {rng.choice(MIDDLE_INITIALS)}. {family}")
        return self._sid(f"{given} {family}")

    def profile(self, index: int) -> WorldAuthor:
        """The scholar's attributes — everything but publications/reviews.

        Pure in ``(seed, index)``: safe to call in any order, from any
        thread, without realising the scholar's block.
        """
        config = self.config
        rng = child_rng(config.seed, "author", index)
        span = config.max_career_length - config.min_career_length
        career_length = config.min_career_length + int(span * rng.random() ** 2)
        career_start = config.current_year - career_length
        expertise = _sample_expertise(config, rng, self.ontology, self._research_topics)
        affiliations = _sample_affiliations(rng, career_start, config.current_year)
        return WorldAuthor(
            author_id=self._sid(f"author-{index}"),
            name=self._name(index),
            topic_expertise=expertise,
            affiliations=affiliations,
            career_start=career_start,
            responsiveness=round(rng.betavariate(3, 2), 4),
            review_quality=round(rng.betavariate(4, 2), 4),
            prominence=round(rng.betavariate(1.5, 4), 4),
            covered_by=_sample_coverage(config, rng),
        )

    def interest_weights(self, index: int) -> dict[str, float]:
        """Registered-interest keywords (ontology labels) → expertise.

        The index-building projection of :meth:`profile`: what a
        scholarly source would list on this scholar's profile page.
        Labels are references into the shared ontology, so a million
        profiles hold a few hundred distinct keyword objects.
        """
        profile = self.profile(index)
        ontology = self.ontology
        return {
            ontology.topic(topic_id).label: weight
            for topic_id, weight in sorted(profile.topic_expertise.items())
        }

    # ------------------------------------------------------------------
    # Blocks (publications, reviews, co-authorship)
    # ------------------------------------------------------------------

    def block(self, block_id: int) -> _Block:
        """The realised cohort block, served from the LRU when warm."""
        block = self._blocks.get(block_id)
        if block is not None:
            self._blocks.move_to_end(block_id)
            self.blocks_hit += 1
            return block
        started = time.perf_counter()
        block = self._realize_block(block_id)
        self.realize_seconds += time.perf_counter() - started
        self._blocks[block_id] = block
        self.blocks_realized += 1
        while len(self._blocks) > self.cache_blocks:
            self._blocks.popitem(last=False)
            self.blocks_evicted += 1
        return block

    def _realize_block(self, block_id: int) -> _Block:
        config = self.config
        start = block_id * self.block_size
        stop = min(start + self.block_size, config.author_count)
        if start >= stop:
            raise KeyError(f"block {block_id} is beyond the world")
        block = _Block()
        members: list[WorldAuthor] = []
        for index in range(start, stop):
            author = self.profile(index)
            members.append(author)
            block.authors[author.author_id] = author
        by_topic: dict[str, list[WorldAuthor]] = {}
        for author in members:
            for topic_id in sorted(author.topic_expertise):
                by_topic.setdefault(topic_id, []).append(author)

        mean_team = (2 + config.max_team_size) / 2
        lead_rate = config.publications_per_author_year / mean_team
        for index, lead in zip(range(start, stop), members):
            self._realize_publications(block, by_topic, index, lead, lead_rate)
            self._realize_reviews(block, index, lead)

        for author in members:
            block.pubs_by_author.setdefault(author.author_id, [])
            block.reviews_by_author.setdefault(author.author_id, [])
            block.coauthors.setdefault(author.author_id, set())
        for pub in block.publications.values():
            for author_id in pub.author_ids:
                block.pubs_by_author[author_id].append(pub.pub_id)
                for other_id in pub.author_ids:
                    if other_id != author_id:
                        block.coauthors[author_id].add(other_id)
        for review in block.reviews.values():
            block.reviews_by_author[review.reviewer_id].append(review.review_id)
        for pub_ids in block.pubs_by_author.values():
            pub_ids.sort(key=lambda p: (block.publications[p].year, p))
        for review_ids in block.reviews_by_author.values():
            review_ids.sort(key=lambda r: (block.reviews[r].year, r))
        return block

    def _realize_publications(
        self,
        block: _Block,
        by_topic: dict[str, list[WorldAuthor]],
        index: int,
        lead: WorldAuthor,
        lead_rate: float,
    ) -> None:
        config = self.config
        ontology = self.ontology
        rng = child_rng(config.seed, "pubs", index)
        serial = 0
        for year in range(lead.career_start, config.current_year + 1):
            for __ in range(_poisson(rng, lead_rate)):
                serial += 1
                pub_id = self._sid(f"pub-{index}-{serial}")
                focus = _weighted_topic(rng, lead.topic_expertise)
                team = [lead.author_id]
                team_size = rng.randint(2, config.max_team_size)
                pool = [
                    a.author_id
                    for a in by_topic.get(focus, [])
                    if a.author_id != lead.author_id and a.career_start <= year
                ]
                rng.shuffle(pool)
                need = team_size - 1
                if len(pool) < need:
                    # The topic pool inside one cohort block is thin; top
                    # up with any career-eligible block member so teams —
                    # and the co-authorship COI graph — stay as dense as
                    # the eager world's, just assortative-first.
                    chosen = set(pool)
                    rest = [
                        a.author_id
                        for a in block.authors.values()
                        if a.author_id != lead.author_id
                        and a.author_id not in chosen
                        and a.career_start <= year
                    ]
                    rng.shuffle(rest)
                    pool.extend(rest)
                team.extend(pool[:need])
                keyword_ids = [focus]
                neighbor_ids = [t.topic_id for t, __r in ontology.neighbors(focus)]
                rng.shuffle(neighbor_ids)
                keyword_ids.extend(neighbor_ids[:2])
                for member in team[1:]:
                    if len(keyword_ids) >= 5:
                        break
                    member_topic = block.authors[member].primary_topic()
                    if member_topic not in keyword_ids:
                        keyword_ids.append(member_topic)
                keywords = tuple(ontology.topic(t).label for t in keyword_ids)
                venue_id = _pick_venue(
                    rng, self._venue_by_topic, self._all_venue_ids, focus
                )
                age = config.current_year - year
                prominence = max(block.authors[a].prominence for a in team)
                citations = _poisson(rng, 2.0 + 18.0 * prominence * math.log1p(age))
                title = _make_title(rng, keywords)
                abstract = (
                    f"We study {keywords[0].lower()} in the context of "
                    f"{keywords[-1].lower()}. {title}. Experiments demonstrate "
                    f"the effectiveness of the proposed approach."
                )
                block.publications[pub_id] = Publication(
                    pub_id=pub_id,
                    title=title,
                    year=year,
                    venue_id=venue_id,
                    author_ids=tuple(team),
                    keywords=keywords,
                    citation_count=citations,
                    abstract=abstract,
                )

    def _realize_reviews(self, block: _Block, index: int, author: WorldAuthor) -> None:
        config = self.config
        rng = child_rng(config.seed, "reviews", index)
        seniority = min(1.0, (config.current_year - author.career_start) / 15.0)
        rate = config.review_activity * seniority * (0.5 + author.responsiveness)
        serial = 0
        for year in range(author.career_start + 2, config.current_year + 1):
            for __ in range(_poisson(rng, rate)):
                serial += 1
                review_id = self._sid(f"review-{index}-{serial}")
                topic = _weighted_topic(rng, author.topic_expertise)
                journal_pool = self._journal_by_topic.get(topic, self._all_journal_ids)
                venue_id = rng.choice(journal_pool)
                days = max(3, int(rng.gauss(45 - 30 * author.responsiveness, 10)))
                block.reviews[review_id] = ReviewRecord(
                    review_id=review_id,
                    reviewer_id=author.author_id,
                    venue_id=venue_id,
                    year=year,
                    days_to_complete=days,
                    on_time=days <= 30,
                )

    # ------------------------------------------------------------------
    # Scholars
    # ------------------------------------------------------------------

    def scholar(self, author_id: str) -> StreamedScholar:
        """Fully realise one scholar (their block is realised once)."""
        index = self.author_index(author_id)
        block = self.block(self.block_of(index))
        author_id = self._sid(author_id)
        author = block.authors[author_id]
        return StreamedScholar(
            author=author,
            publications=tuple(
                block.publications[p] for p in block.pubs_by_author[author_id]
            ),
            reviews=tuple(
                block.reviews[r] for r in block.reviews_by_author[author_id]
            ),
            coauthor_ids=frozenset(block.coauthors[author_id]),
        )

    def stats(self) -> dict:
        """Block-cache counters: every :meth:`block` call is either a hit
        or a realisation; ``realize_seconds`` is the wall time spent in
        those realisations."""
        return {
            "authors": self.config.author_count,
            "block_size": self.block_size,
            "blocks_cached": len(self._blocks),
            "blocks_hit": self.blocks_hit,
            "blocks_realized": self.blocks_realized,
            "blocks_evicted": self.blocks_evicted,
            "realize_seconds": self.realize_seconds,
        }

    # ------------------------------------------------------------------
    # Eager counterpart
    # ------------------------------------------------------------------

    def materialize(self) -> ScholarlyWorld:
        """Eagerly generate the whole world this instance streams.

        Walks every block front to back and assembles a classic
        :class:`ScholarlyWorld`.  Because every entity is derived from
        its own child RNG, this is *bit-identical* to what lazy access
        yields in any order — the property the streaming tests pin down.
        Only use on small worlds: this is the O(world) path streaming
        exists to avoid.
        """
        authors: dict[str, WorldAuthor] = {}
        publications: dict[str, Publication] = {}
        reviews: dict[str, ReviewRecord] = {}
        block_count = -(-self.config.author_count // self.block_size)
        for block_id in range(block_count):
            block = self._realize_block(block_id)
            authors.update(block.authors)
            publications.update(block.publications)
            reviews.update(block.reviews)
        world = ScholarlyWorld(
            config=self.config,
            ontology=self.ontology,
            authors=authors,
            venues=dict(self.venues),
            publications=publications,
            reviews=reviews,
        )
        return world.finalize()

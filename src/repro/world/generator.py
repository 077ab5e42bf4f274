"""Deterministic generation of the synthetic scholarly world.

The generator is a pure function of :class:`~repro.world.config.WorldConfig`:
same config, same world.  The population it builds has the structural
properties the experiments rely on:

- research topics are drawn from the ontology, and collaboration is
  topically assortative (coauthors share topics, often institutions),
  which is what makes co-authorship a real COI signal;
- publication counts grow over calendar years (more scholars active in
  later years), reproducing the Fig. 1 growth shape;
- citation counts follow a heavy-tailed distribution driven by hidden
  prominence and paper age;
- a controlled number of *name collisions* is planted for the identity
  experiments;
- per-source coverage is sampled so every scholar is missing from some
  services, as in reality.
"""

from __future__ import annotations

import math
import random

from repro.ontology.graph import TopicOntology
from repro.ontology.data import build_seed_ontology
from repro.scholarly.records import (
    Affiliation,
    Publication,
    ReviewRecord,
    SourceName,
    Venue,
    VenueType,
)
from repro.world.config import WorldConfig
from repro.world.institutions import INSTITUTIONS
from repro.world.model import ScholarlyWorld, WorldAuthor
from repro.world.names import NameFactory

_TITLE_TEMPLATES: tuple[str, ...] = (
    "Efficient {a} for {b}",
    "Scalable {a} in {b}",
    "A Framework for {a} over {b}",
    "Towards Adaptive {a} for {b}",
    "On the Complexity of {a} in {b}",
    "{a} Meets {b}: Opportunities and Challenges",
    "Benchmarking {a} Techniques for {b}",
    "Learning-Based {a} for {b}",
    "Distributed {a} with Applications to {b}",
    "Revisiting {a} for Modern {b}",
)


def generate_world(config: WorldConfig | None = None) -> ScholarlyWorld:
    """Generate a complete :class:`ScholarlyWorld` from ``config``."""
    config = config or WorldConfig()
    rng = random.Random(config.seed)
    ontology = build_seed_ontology()
    research_topics = _research_topics(ontology)
    venues = _generate_venues(config, rng, ontology, research_topics)
    authors = _generate_authors(config, rng, ontology, research_topics)
    publications = _generate_publications(config, rng, ontology, authors, venues)
    reviews = _generate_reviews(config, rng, authors, venues, publications)
    world = ScholarlyWorld(
        config=config,
        ontology=ontology,
        authors=authors,
        venues=venues,
        publications=publications,
        reviews=reviews,
    )
    return world.finalize()


# ----------------------------------------------------------------------
# Topics and venues
# ----------------------------------------------------------------------


def _research_topics(ontology: TopicOntology) -> list[str]:
    """Topics concrete enough to be somebody's research area (depth >= 2)."""
    return sorted(
        topic.topic_id for topic in ontology.topics() if ontology.depth(topic.topic_id) >= 2
    )


def _generate_venues(
    config: WorldConfig,
    rng: random.Random,
    ontology: TopicOntology,
    research_topics: list[str],
) -> dict[str, Venue]:
    venues: dict[str, Venue] = {}
    anchors = rng.sample(
        research_topics, min(len(research_topics), config.journals_count + config.conferences_count)
    )
    while len(anchors) < config.journals_count + config.conferences_count:
        anchors.append(rng.choice(research_topics))
    for index in range(config.journals_count):
        anchor = anchors[index]
        label = ontology.topic(anchor).label
        venue_id = f"journal-{index}"
        venues[venue_id] = Venue(
            venue_id=venue_id,
            name=f"Journal of {label}",
            venue_type=VenueType.JOURNAL,
            topic_ids=_venue_topics(ontology, anchor),
        )
    for index in range(config.conferences_count):
        anchor = anchors[config.journals_count + index]
        label = ontology.topic(anchor).label
        venue_id = f"conf-{index}"
        venues[venue_id] = Venue(
            venue_id=venue_id,
            name=f"International Conference on {label}",
            venue_type=VenueType.CONFERENCE,
            topic_ids=_venue_topics(ontology, anchor),
        )
    return venues


def _venue_topics(ontology: TopicOntology, anchor: str) -> tuple[str, ...]:
    """A venue covers its anchor topic and the anchor's neighbourhood."""
    topics = [anchor]
    topics.extend(t.topic_id for t, __ in ontology.neighbors(anchor))
    return tuple(dict.fromkeys(topics))


# ----------------------------------------------------------------------
# Authors
# ----------------------------------------------------------------------


def _generate_authors(
    config: WorldConfig,
    rng: random.Random,
    ontology: TopicOntology,
    research_topics: list[str],
) -> dict[str, WorldAuthor]:
    names = NameFactory(rng)
    authors: dict[str, WorldAuthor] = {}
    collision_names: list[str] = []
    for __ in range(config.collision_group_count):
        collision_names.extend(
            [names.make_collision_name()] * config.collision_group_size
        )
    for index in range(config.author_count):
        author_id = f"author-{index}"
        if index < len(collision_names):
            name = collision_names[index]
        else:
            name = names.make_unique()
        # Quadratic bias toward short careers: the community is growing
        # (most scholars are junior), which is what produces the Fig. 1
        # records-per-year growth curve.
        span = config.max_career_length - config.min_career_length
        career_length = config.min_career_length + int(span * rng.random() ** 2)
        career_start = config.current_year - career_length
        expertise = _sample_expertise(config, rng, ontology, research_topics)
        affiliations = _sample_affiliations(rng, career_start, config.current_year)
        authors[author_id] = WorldAuthor(
            author_id=author_id,
            name=name,
            topic_expertise=expertise,
            affiliations=affiliations,
            career_start=career_start,
            responsiveness=round(rng.betavariate(3, 2), 4),
            review_quality=round(rng.betavariate(4, 2), 4),
            prominence=round(rng.betavariate(1.5, 4), 4),
            covered_by=_sample_coverage(config, rng),
        )
    return authors


def _sample_expertise(
    config: WorldConfig,
    rng: random.Random,
    ontology: TopicOntology,
    research_topics: list[str],
) -> dict[str, float]:
    primary = rng.choice(research_topics)
    expertise = {primary: round(rng.uniform(0.7, 1.0), 4)}
    extra = max(0, round(rng.gauss(config.topics_per_author - 1, 1.0)))
    neighbors = [t.topic_id for t, __ in ontology.neighbors(primary)]
    rng.shuffle(neighbors)
    for topic_id in neighbors[:extra]:
        expertise[topic_id] = round(rng.uniform(0.3, 0.8), 4)
    while len(expertise) < 1 + extra and research_topics:
        topic_id = rng.choice(research_topics)
        if topic_id not in expertise:
            expertise[topic_id] = round(rng.uniform(0.2, 0.6), 4)
    return expertise


def _sample_affiliations(
    rng: random.Random, career_start: int, current_year: int
) -> tuple[Affiliation, ...]:
    """1-3 back-to-back affiliation periods spanning the career."""
    move_count = rng.choices([0, 1, 2], weights=[5, 3, 1])[0]
    boundaries = sorted(
        rng.sample(range(career_start + 1, current_year), k=move_count)
        if current_year - career_start > move_count + 1
        else []
    )
    periods = []
    starts = [career_start] + boundaries
    ends: list[int | None] = [b - 1 for b in boundaries] + [None]
    used: set[str] = set()
    for start, end in zip(starts, ends):
        institution, country = rng.choice(INSTITUTIONS)
        while institution in used:
            institution, country = rng.choice(INSTITUTIONS)
        used.add(institution)
        periods.append(
            Affiliation(
                institution=institution,
                country=country,
                start_year=start,
                end_year=end,
            )
        )
    return tuple(periods)


def _sample_coverage(config: WorldConfig, rng: random.Random) -> frozenset[SourceName]:
    covered = {
        source
        for source, probability in config.source_coverage.items()
        if rng.random() < probability
    }
    covered.add(SourceName.DBLP)  # the universal index
    return frozenset(covered)


# ----------------------------------------------------------------------
# Publications
# ----------------------------------------------------------------------


def _generate_publications(
    config: WorldConfig,
    rng: random.Random,
    ontology: TopicOntology,
    authors: dict[str, WorldAuthor],
    venues: dict[str, Venue],
) -> dict[str, Publication]:
    by_topic: dict[str, list[str]] = {}
    for author in authors.values():
        for topic_id in author.topics():
            by_topic.setdefault(topic_id, []).append(author.author_id)
    venue_by_topic: dict[str, list[str]] = {}
    for venue in venues.values():
        for topic_id in venue.topic_ids:
            venue_by_topic.setdefault(topic_id, []).append(venue.venue_id)
    all_venue_ids = sorted(venues)
    publications: dict[str, Publication] = {}
    pub_index = 0
    # Expected papers where this author is the lead: total output divided
    # by the average team size (every member "counts" the paper).
    mean_team = (2 + config.max_team_size) / 2
    lead_rate = config.publications_per_author_year / mean_team
    for author_id in sorted(authors):
        author = authors[author_id]
        for year in range(author.career_start, config.current_year + 1):
            for __ in range(_poisson(rng, lead_rate)):
                pub_index += 1
                publication = _make_publication(
                    config,
                    rng,
                    ontology,
                    authors,
                    by_topic,
                    venue_by_topic,
                    all_venue_ids,
                    lead=author,
                    year=year,
                    pub_id=f"pub-{pub_index}",
                )
                publications[publication.pub_id] = publication
    return publications


def _make_publication(
    config: WorldConfig,
    rng: random.Random,
    ontology: TopicOntology,
    authors: dict[str, WorldAuthor],
    by_topic: dict[str, list[str]],
    venue_by_topic: dict[str, list[str]],
    all_venue_ids: list[str],
    lead: WorldAuthor,
    year: int,
    pub_id: str,
) -> Publication:
    focus = _weighted_topic(rng, lead.topic_expertise)
    team = [lead.author_id]
    team_size = rng.randint(2, config.max_team_size)
    pool = [
        a
        for a in by_topic.get(focus, [])
        if a != lead.author_id and authors[a].career_start <= year
    ]
    rng.shuffle(pool)
    team.extend(pool[: team_size - 1])
    # Keywords: focus topic + a couple of team topics / ontology neighbours.
    keyword_ids = [focus]
    neighbor_ids = [t.topic_id for t, __ in ontology.neighbors(focus)]
    rng.shuffle(neighbor_ids)
    keyword_ids.extend(neighbor_ids[:2])
    for member in team[1:]:
        if len(keyword_ids) >= 5:
            break
        member_topic = authors[member].primary_topic()
        if member_topic not in keyword_ids:
            keyword_ids.append(member_topic)
    keywords = tuple(ontology.topic(t).label for t in keyword_ids)
    venue_id = _pick_venue(rng, venue_by_topic, all_venue_ids, focus)
    age = config.current_year - year
    prominence = max(a_obj.prominence for a_obj in (authors[a] for a in team))
    citation_mean = 2.0 + 18.0 * prominence * math.log1p(age)
    citations = _poisson(rng, citation_mean)
    title = _make_title(rng, keywords)
    abstract = (
        f"We study {keywords[0].lower()} in the context of "
        f"{keywords[-1].lower()}. {title}. Experiments demonstrate the "
        f"effectiveness of the proposed approach."
    )
    return Publication(
        pub_id=pub_id,
        title=title,
        year=year,
        venue_id=venue_id,
        author_ids=tuple(team),
        keywords=keywords,
        citation_count=citations,
        abstract=abstract,
    )


def _pick_venue(
    rng: random.Random,
    venue_by_topic: dict[str, list[str]],
    all_venue_ids: list[str],
    focus: str,
) -> str:
    matching = venue_by_topic.get(focus)
    if matching:
        return rng.choice(matching)
    return rng.choice(all_venue_ids)


def _weighted_topic(rng: random.Random, expertise: dict[str, float]) -> str:
    topics = sorted(expertise)
    weights = [expertise[t] for t in topics]
    return rng.choices(topics, weights=weights)[0]


def _make_title(rng: random.Random, keywords: tuple[str, ...]) -> str:
    template = rng.choice(_TITLE_TEMPLATES)
    a = keywords[0]
    b = keywords[1] if len(keywords) > 1 else "Large-Scale Systems"
    return template.format(a=a, b=b)


# ----------------------------------------------------------------------
# Reviews
# ----------------------------------------------------------------------


def _generate_reviews(
    config: WorldConfig,
    rng: random.Random,
    authors: dict[str, WorldAuthor],
    venues: dict[str, Venue],
    publications: dict[str, Publication],
) -> dict[str, ReviewRecord]:
    journal_by_topic: dict[str, list[str]] = {}
    journals = [v for v in venues.values() if v.venue_type == VenueType.JOURNAL]
    for venue in journals:
        for topic_id in venue.topic_ids:
            journal_by_topic.setdefault(topic_id, []).append(venue.venue_id)
    all_journal_ids = sorted(v.venue_id for v in journals)
    reviews: dict[str, ReviewRecord] = {}
    review_index = 0
    for author_id in sorted(authors):
        author = authors[author_id]
        seniority = min(1.0, (config.current_year - author.career_start) / 15.0)
        rate = config.review_activity * seniority * (0.5 + author.responsiveness)
        for year in range(author.career_start + 2, config.current_year + 1):
            for __ in range(_poisson(rng, rate)):
                review_index += 1
                topic = _weighted_topic(rng, author.topic_expertise)
                journal_pool = journal_by_topic.get(topic, all_journal_ids)
                venue_id = rng.choice(journal_pool)
                days = max(3, int(rng.gauss(45 - 30 * author.responsiveness, 10)))
                reviews[f"review-{review_index}"] = ReviewRecord(
                    review_id=f"review-{review_index}",
                    reviewer_id=author_id,
                    venue_id=venue_id,
                    year=year,
                    days_to_complete=days,
                    on_time=days <= 30,
                )
    return reviews


#: Cutover to the large-mean sampler.  Must stay above every mean the
#: default world family can produce (citation means top out below ~64 at
#: ``max_career_length=30``) so existing seeds draw exactly as before;
#: beyond it Knuth's loop costs O(mean) RNG calls and ``exp(-mean)``
#: eventually underflows to 0.0, turning the termination test into
#: "until the product underflows" — hundreds of draws per variate.
_POISSON_KNUTH_MAX = 80.0


def _poisson(rng: random.Random, mean: float) -> int:
    """Sample a Poisson variate.

    Knuth's multiplicative method below :data:`_POISSON_KNUTH_MAX`
    (unchanged draws for every mean the stock worlds use), and the PTRS
    transformed-rejection sampler of Hörmann (1993) above it — O(1)
    expected draws for any mean, no ``exp(-mean)`` underflow.
    """
    if mean <= 0:
        return 0
    if mean > _POISSON_KNUTH_MAX:
        return _poisson_ptrs(rng, mean)
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _poisson_ptrs(rng: random.Random, mean: float) -> int:
    """Hörmann's PTRS rejection sampler for large-mean Poisson draws."""
    log_mean = math.log(mean)
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * log_mean - mean - math.lgamma(k + 1.0)
        ):
            return int(k)

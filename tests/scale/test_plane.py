"""End-to-end scale-plane tests: the query path against its brute-force
reference, the COI screen against the world's own profiles, and the
plane's input and lifecycle checks."""

import math
import re
from collections import Counter

import pytest

from repro.scale.bench import popular_labels
from repro.scale.plane import PoolMember, ScalePlane, ScaleVerdict
from repro.scoring.features import ScoringContext, build_candidate_features
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

_CONFIG = WorldConfig(author_count=200, seed=9)

#: An open affiliation end, as the screen counts it.
_OPEN_END = 10_000

#: Brute-force identity queries over the six most popular labels:
#: weighted and plain, one to six terms, a term no scholar registers,
#: and no, two or eight submitters.
_QUERIES = {
    "weighted-3": lambda top: ({top[0]: 1.0, top[1]: 0.8, top[2]: 0.5}, ["author-0", "author-1"]),
    "plain-3": lambda top: (top[:3], ["author-0", "author-1"]),
    "single": lambda top: ({top[3]: 1.0}, ["author-2", "author-3"]),
    "all-six": lambda top: (
        {label: 1.0 - 0.1 * i for i, label in enumerate(top)},
        [f"author-{i}" for i in range(8)],
    ),
    "unknown-term": lambda top: ({"No Such Topic": 1.0, top[4]: 0.7}, []),
}


@pytest.fixture(scope="module")
def scale_world():
    return StreamingWorld(_CONFIG, block_size=32)


@pytest.fixture(scope="module")
def labels(scale_world):
    return popular_labels(scale_world, sample=200, count=6)


@pytest.fixture(scope="module")
def keywords(labels):
    return {labels[0]: 1.0, labels[1]: 0.8, labels[2]: 0.5}


@pytest.fixture(scope="module")
def submitters():
    return ["author-0", "author-1"]


@pytest.fixture(scope="module")
def plane(scale_world):
    plane = ScalePlane(scale_world)
    plane.ingest()
    return plane


@pytest.fixture(scope="module")
def reference(plane, keywords, submitters):
    return plane.brute_force_topk(keywords, submitters, k=10)


def _end(aff) -> int:
    return _OPEN_END if aff.end_year is None else aff.end_year


def _expected_verdict(world, candidate_id, submitter_ids, overlaps):
    """One verdict recomputed from ``world.scholar()`` and the
    submitters' profiles; tallies the kinds of same-institution
    interval pairs it met in ``overlaps``."""
    submitters = set(submitter_ids)
    submitter_affs = []
    for submitter_id in submitter_ids:
        try:
            profile = world.profile(world.author_index(submitter_id))
        except KeyError:
            continue
        submitter_affs.extend(profile.affiliations)
    scholar = world.scholar(candidate_id)
    institutions = set()
    for aff in scholar.author.affiliations:
        for other in submitter_affs:
            if aff.institution != other.institution:
                continue
            if aff.start_year <= _end(other) and other.start_year <= _end(aff):
                institutions.add(aff.institution)
                overlaps["open-ended"] += aff.end_year is None or other.end_year is None
                overlaps["end-touching"] += (
                    aff.start_year == _end(other) or other.start_year == _end(aff)
                )
            else:
                overlaps["disjoint"] += 1
    reasons = ["submitting-author"] if candidate_id in submitters else []
    reasons += [f"coauthor:{a}" for a in sorted(scholar.coauthor_ids & submitters)]
    reasons += [f"institution:{i}" for i in sorted(institutions)]
    return ScaleVerdict(candidate_id, bool(reasons), tuple(reasons))


class TestBitIdentity:
    @pytest.mark.parametrize(
        "pool_limit", [None, _CONFIG.author_count], ids=["uncapped", "cap-at-population"]
    )
    @pytest.mark.parametrize("query", sorted(_QUERIES))
    def test_topk_matches_brute_force(self, plane, labels, query, pool_limit):
        """Same ids, same floats, same order as the full scan, for the
        top 10 and for the whole ranking, whenever the pool cap
        truncates nothing."""
        keywords, submitters = _QUERIES[query](labels)
        for k in (10, _CONFIG.author_count):
            hits, stats = plane.topk(keywords, submitters, k=k, pool_limit=pool_limit)
            assert hits == plane.brute_force_topk(keywords, submitters, k=k)
            assert stats.pool_size > 0
            assert stats.pool_size == stats.screened_out + stats.scored

    def test_plain_keyword_list_query(self, plane, reference, keywords, submitters):
        weighted, __ = plane.topk(keywords, submitters, k=10)
        unweighted, __ = plane.topk(list(keywords), submitters, k=10)
        assert [h.candidate_id for h in weighted] == [
            h.candidate_id for h in reference
        ]
        # Dropping the query weights re-ranks but stays canonical.
        assert unweighted == sorted(
            unweighted, key=lambda h: (-h.total_score, h.candidate_id)
        )

    def test_pool_limit_caps_work(self, plane, keywords, submitters):
        __, capped = plane.topk(keywords, submitters, k=10, pool_limit=20)
        __, full = plane.topk(keywords, submitters, k=10, pool_limit=None)
        assert capped.pool_size == 20 < full.pool_size
        assert capped.scored < full.scored


class TestQueryWeights:
    @pytest.mark.parametrize(
        "weight", [0.0, -0.5, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    @pytest.mark.parametrize("method", ["retrieve", "topk", "brute_force_topk"])
    def test_weight_must_be_finite_and_positive(self, plane, labels, method, weight):
        """A zero-weight term would pull scholars into the pool that the
        brute-force scan never considers, so ``topk`` and its reference
        would disagree; every query path rejects the weight by name."""
        query = {labels[0]: 1.0, labels[1]: weight}
        args = (query,) if method == "retrieve" else (query, ["author-0"])
        with pytest.raises(ValueError, match=re.escape(repr(labels[1]))):
            getattr(plane, method)(*args)


class TestScreening:
    def test_submitters_never_recommended(self, plane, keywords):
        submitters = [f"author-{i}" for i in range(8)]
        hits, __ = plane.topk(keywords, submitters, k=200)
        assert not ({h.candidate_id for h in hits} & set(submitters))

    def test_coauthors_screened_with_reasons(self, plane, scale_world):
        scholar = scale_world.scholar("author-5")
        coauthor = sorted(scholar.coauthor_ids)[0]
        pool = plane.retrieve(dict(scale_world.interest_weights(scale_world.author_index(coauthor))))
        verdicts = plane.screen(pool, ["author-5"])
        by_id = {v.candidate_id: v for v in verdicts}
        assert coauthor in by_id
        assert by_id[coauthor].has_conflict
        assert "coauthor:author-5" in by_id[coauthor].reasons

    def test_unknown_submitter_screens_nothing_extra(self, plane, scale_world, keywords):
        """An id the world never issued adds no reason: out of range, or
        a non-canonical spelling of a real id.  ``author-007`` must not
        borrow ``author-7``'s affiliations; the second query's pool holds
        ``author-7`` itself."""
        for query in (keywords, scale_world.interest_weights(7)):
            pool = plane.retrieve(query)
            baseline = plane.screen(pool, [])
            for ghost in ("author-99999", "author-007"):
                assert plane.screen(pool, [ghost]) == baseline
                assert plane.topk(query, [ghost])[0] == plane.brute_force_topk(
                    query, [ghost]
                )

    def test_verdicts_in_pool_order(self, plane, keywords):
        pool = plane.retrieve(keywords)
        verdicts = plane.screen(pool, ["author-0"])
        assert [v.candidate_id for v in verdicts] == [
            m.candidate_id for m in pool
        ]

    def test_verdicts_recomputed_from_profiles(self, plane, scale_world, labels):
        """Every verdict of five uncapped pools, reasons and their order
        included, equals one recomputed from the world's scholars and
        the submitters' profiles.  The submitters include two pool
        members and an unknown id."""
        reasons = Counter()
        overlaps = Counter()
        for first, second in zip(labels, labels[1:]):
            pool = plane.retrieve({first: 1.0, second: 0.8})
            submitters = [
                pool[0].candidate_id,
                pool[len(pool) // 2].candidate_id,
                "author-0",
                "author-99999",
            ]
            expected = [
                _expected_verdict(scale_world, m.candidate_id, submitters, overlaps)
                for m in pool
            ]
            assert plane.screen(pool, submitters) == expected
            reasons.update(r.split(":")[0] for v in expected for r in v.reasons)
        # The pools exercise every reason and every kind of interval pair.
        assert set(reasons) == {"submitting-author", "coauthor", "institution"}
        assert set(overlaps) == {"open-ended", "end-touching", "disjoint"}
        assert all(overlaps.values())


class TestIngest:
    def test_stats_cover_population(self, plane):
        stats = plane.stats()
        assert stats["index"]["documents"] == 200
        assert stats["coi_candidates"] == 200
        assert stats["scoring_rows"] == 200

    def test_validation(self, scale_world, plane, keywords, submitters):
        """Compatibility pin for ``n_shards``: validated (0 raises) and
        otherwise inert — at 1, 4 and 16 the plane ingests and answers
        exactly as ``ScalePlane(world)`` does.  It goes with the keyword
        once the benchmark harness stops passing it."""
        with pytest.raises(ValueError):
            ScalePlane(scale_world, n_shards=0)
        expected = plane.topk(keywords, submitters, k=10)
        for n_shards in (1, 4, 16):
            pinned = ScalePlane(scale_world, n_shards=n_shards)
            assert pinned.ingest() == plane.stats()
            assert pinned.topk(keywords, submitters, k=10) == expected

    def test_queries_before_ingest_raise(self, scale_world, keywords, submitters):
        fresh = ScalePlane(scale_world)
        pool = [PoolMember("author-0", 1.0)]
        for query in (
            lambda: fresh.retrieve(keywords),
            lambda: fresh.screen(pool, submitters),
            lambda: fresh.component_rows(pool),
            lambda: fresh.topk(keywords, submitters),
        ):
            with pytest.raises(RuntimeError, match=re.escape("ingest()")):
                query()

    def test_second_ingest_raises(self, scale_world):
        fresh = ScalePlane(scale_world)
        first = fresh.ingest()
        with pytest.raises(RuntimeError, match=re.escape("ingest()")):
            fresh.ingest()
        assert fresh.stats() == first
        assert sum(len(rows) for rows in fresh._affiliations.values()) == sum(
            len(scale_world.profile(i).affiliations) for i in range(200)
        )


class TestScoringRows:
    """Ingest-time scoring rows against the paper-faithful feature build."""

    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_rows_equal_candidate_features(self, scale_world, n_shards):
        """One row table for the whole population, whatever ``n_shards``
        the plane was built with."""
        plane = ScalePlane(scale_world, n_shards=n_shards)
        plane.ingest()
        ctx = ScoringContext(
            current_year=scale_world.config.current_year, half_life_years=3.0
        )
        assert set(plane._rows) == set(scale_world.author_ids())
        for candidate_id, row in plane._rows.items():
            candidate = plane.candidate_of(candidate_id)
            features = build_candidate_features(candidate, ctx)
            assert row == (
                candidate.name,
                features.log_citations,
                features.review_experience,
                features.timeliness,
            )

    def test_queries_never_realise_a_block(self, keywords, submitters):
        """With a one-block cache every query-time realisation would
        show; after ingest the counter must not move."""
        world = StreamingWorld(_CONFIG, block_size=32, cache_blocks=1)
        plane = ScalePlane(world)
        plane.ingest()
        before = world.stats()["blocks_realized"]
        queries = [keywords, list(keywords), dict(list(keywords.items())[:1])]
        answers = [plane.topk(query, submitters, k=10)[0] for query in queries]
        assert world.stats()["blocks_realized"] == before
        for query, hits in zip(queries, answers):
            assert hits == plane.brute_force_topk(query, submitters, k=10)

    def test_queries_never_regenerate_a_profile(self, plane, keywords, monkeypatch):
        """The submitters' affiliations come from the ingest-time rows,
        so a query derives no profile, known submitter or not."""
        calls = []
        profile = plane.world.profile
        monkeypatch.setattr(
            plane.world, "profile", lambda index: calls.append(index) or profile(index)
        )
        plane.topk(keywords, ["author-0", "author-1", "author-99999"], k=10)
        plane.topk(list(keywords), ["author-5"], k=10, pool_limit=20)
        assert calls == []

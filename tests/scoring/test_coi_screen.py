"""CoiScreen ≡ CoiDetector: flags *and* reason tuples, across the world.

The indexed screen must be a pure reimplementation, never a semantic
fork: for every candidate the extraction phase produces and every COI
configuration the editor can choose, the verdict — including the exact
reason strings in their exact order — must match the naive detector's.
"""

import pytest

from repro.core.coi import CoiDetector
from repro.core.config import AffiliationCoiLevel, CoiConfig
from repro.core.filtering import _collect_publication_years
from repro.core.pipeline import Minaret
from repro.scholarly.records import Affiliation
from repro.scoring import CoiScreen, ScoringContext, build_candidate_features
from tests.conftest import make_manuscript
from tests.scoring.conftest import make_author, make_candidate

CTX = ScoringContext(current_year=2019, half_life_years=3.0)

CONFIGS = {
    "default": CoiConfig(),
    "lookback": CoiConfig(coauthorship_lookback_years=5),
    "country": CoiConfig(affiliation_level=AffiliationCoiLevel.COUNTRY),
    "no-affiliation": CoiConfig(affiliation_level=AffiliationCoiLevel.NONE),
    "no-coauthorship": CoiConfig(check_coauthorship=False),
    "mentorship": CoiConfig(check_mentorship=True),
}


@pytest.fixture(scope="module")
def screening_pools(world):
    """(candidates, verified authors, publication years) per manuscript.

    Real pipeline output — the same objects FilterPhase screens — for a
    handful of manuscripts by distinct world authors.
    """
    from repro.scholarly.registry import ScholarlyHub

    minaret = Minaret(ScholarlyHub.deploy(world))
    pools = []
    for author in world.authors.values():
        if len(pools) >= 3:
            break
        if len(world.authors_by_name(author.name)) > 1:
            continue
        if len(author.topic_expertise) < 2:
            continue
        result = minaret.recommend(make_manuscript(world, author))
        pools.append(
            (
                result.candidates,
                list(result.verified_authors),
                _collect_publication_years(result.candidates),
            )
        )
    assert len(pools) == 3
    return pools


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_world_verdicts_identical(screening_pools, config_name):
    config = CONFIGS[config_name]
    conflicts = 0
    for candidates, authors, years in screening_pools:
        detector = CoiDetector(config, current_year=2019)
        screen = CoiScreen(authors, config, current_year=2019)
        for candidate in candidates:
            naive = detector.check(candidate, authors, years)
            fast = screen.screen(build_candidate_features(candidate, CTX), years)
            assert fast.has_conflict == naive.has_conflict
            assert fast.reasons == naive.reasons
            conflicts += naive.has_conflict
    if config_name != "no-coauthorship":
        # The screen must prove equivalence on real conflicts, not just
        # on all-clear pools: every manuscript author retrieved as their
        # own reviewer is at minimum a same-person conflict.
        assert conflicts > 0


def test_empty_author_list_passes():
    screen = CoiScreen([])
    candidate = make_candidate("c", pub_ids=("p1",))
    verdict = screen.screen(build_candidate_features(candidate, CTX))
    assert not verdict.has_conflict
    assert verdict.reasons == ()


def test_reason_order_interleaves_rules_per_author():
    # Two authors; the candidate conflicts with both through different
    # rules.  Reasons must come grouped per author, in author order —
    # exactly how CoiDetector emits them.
    shared_aff = Affiliation("MIT", "US", 2015, None)
    candidate = make_candidate(
        "c", pub_ids=("p1",), affiliations=(shared_aff,)
    )
    authors = [
        make_author(name="First", affiliations=(Affiliation("MIT", "US", 2014, None),)),
        make_author(name="Second", pub_ids=("p1",)),
    ]
    naive = CoiDetector().check(candidate, authors)
    fast = CoiScreen(authors).screen(build_candidate_features(candidate, CTX))
    assert fast.reasons == naive.reasons
    assert "First" in fast.reasons[0] and "Second" in fast.reasons[1]


def test_submitted_affiliation_counts_as_evidence():
    candidate = make_candidate(
        "c", affiliations=(Affiliation("KAUST", "Saudi Arabia", 2017, None),)
    )
    authors = [
        make_author(
            name="A",
            submitted_affiliation="KAUST",
            submitted_country="Saudi Arabia",
        )
    ]
    naive = CoiDetector().check(candidate, authors)
    fast = CoiScreen(authors).screen(build_candidate_features(candidate, CTX))
    assert fast.has_conflict and naive.has_conflict
    assert fast.reasons == naive.reasons


def test_country_level_matches_naive_on_disjoint_institutions():
    config = CoiConfig(affiliation_level=AffiliationCoiLevel.COUNTRY)
    candidate = make_candidate(
        "c", affiliations=(Affiliation("ETH", "Switzerland", 2015, None),)
    )
    authors = [
        make_author(
            name="A", affiliations=(Affiliation("EPFL", "Switzerland", 2014, None),)
        )
    ]
    naive = CoiDetector(config).check(candidate, authors)
    fast = CoiScreen(authors, config).screen(build_candidate_features(candidate, CTX))
    assert fast.has_conflict and naive.has_conflict
    assert fast.reasons == naive.reasons


def test_mentorship_matches_naive():
    config = CoiConfig(check_mentorship=True)
    senior = [{"id": f"s{y}", "year": y} for y in range(1995, 2015)]
    shared = [{"id": "j1", "year": 2012}, {"id": "j2", "year": 2013}]
    junior = shared + [{"id": "j3", "year": 2018}]
    candidate = make_candidate("c", dblp_pubs=junior)
    authors = [make_author(name="Prof", dblp_publications=tuple(senior + shared))]
    naive = CoiDetector(config).check(candidate, authors)
    fast = CoiScreen(authors, config).screen(build_candidate_features(candidate, CTX))
    assert fast.has_conflict and naive.has_conflict
    assert fast.reasons == naive.reasons
    assert "advisee" in fast.reasons[0]


def test_lookback_window_matches_naive():
    config = CoiConfig(coauthorship_lookback_years=5)
    candidate = make_candidate("c", pub_ids=("old", "new"))
    authors = [make_author(name="A", pub_ids=("old", "new"))]
    years = {"old": 2005, "new": 2018}
    naive = CoiDetector(config, current_year=2019).check(candidate, authors, years)
    fast = CoiScreen(authors, config, current_year=2019).screen(
        build_candidate_features(candidate, CTX), years
    )
    assert fast.reasons == naive.reasons
    assert "1 publication(s)" in fast.reasons[0]


def test_filter_phase_paths_agree(screening_pools):
    """FilterPhase's COI reasons equal CoiDetector's on real pools."""
    from repro.core.filtering import FilterPhase

    detector = CoiDetector(current_year=2019)
    conflicts = 0
    for candidates, authors, years in screening_pools:
        __, decisions = FilterPhase(current_year=2019).apply(candidates, authors)
        assert [d.candidate_id for d in decisions] == [
            c.candidate_id for c in candidates
        ]
        for candidate, decision in zip(candidates, decisions):
            verdict = detector.check(candidate, authors, years)
            coi_reasons = tuple(r for r in decision.reasons if r.startswith("COI: "))
            assert coi_reasons == tuple(f"COI: {r}" for r in verdict.reasons)
            conflicts += verdict.has_conflict
    assert conflicts > 0

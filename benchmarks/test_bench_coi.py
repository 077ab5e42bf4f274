"""EXP-COI — conflict-of-interest detection quality (paper §2.2).

The paper claims COI screening by prior co-authorship and shared
affiliations "as configured by the editor".  The synthetic world gives
us the true conflict set, so detection quality is measurable:

- precision/recall of the pipeline's COI verdicts against the oracle,
  for university-level and country-level configurations, scored on
  :class:`~repro.scoring.coi.CoiScreen` — the screen the filter phase
  runs;
- the strictness ordering (country ⊃ university) the §2.2 knob implies.

The pipeline sees conflicts only through extracted profiles (partial
coverage, undated Scholar affiliations), so recall < 1.0 is expected and
the measured gap *is* the experimental result.
"""

from __future__ import annotations

import pytest

from repro.core.config import AffiliationCoiLevel, CoiConfig, PipelineConfig
from repro.core.pipeline import Minaret
from repro.scholarly.registry import ScholarlyHub
from repro.scoring import CoiScreen, ScoringContext, build_candidate_features
from repro.world.model import GroundTruthOracle
from benchmarks.conftest import print_table, sample_manuscripts


def measure_coi(world, level):
    """Run the pipeline, then screen every extracted candidate (kept or
    not) and compare the verdicts against the oracle."""
    from repro.baselines.evaluation import CandidateResolver
    from repro.core.filtering import _collect_publication_years

    hub = ScholarlyHub.deploy(world)
    resolver = CandidateResolver(hub)
    oracle = GroundTruthOracle(world)
    config = PipelineConfig()
    coi = CoiConfig(affiliation_level=level)
    ctx = ScoringContext.from_config(config)
    true_positive = false_positive = false_negative = true_negative = 0
    for manuscript, author in sample_manuscripts(world, count=6):
        result = Minaret(hub, config=config).recommend(manuscript)
        years = _collect_publication_years(result.candidates)
        screen = CoiScreen(
            result.verified_authors, coi, current_year=config.current_year
        )
        for candidate in result.candidates:
            world_id = resolver.world_id(candidate.candidate_id)
            if world_id is None:
                continue
            predicted = screen.screen(
                build_candidate_features(candidate, ctx), years
            ).has_conflict
            actual = oracle.has_coi(
                world_id,
                [author.author_id],
                include_country=(level is AffiliationCoiLevel.COUNTRY),
            )
            if predicted and actual:
                true_positive += 1
            elif predicted and not actual:
                false_positive += 1
            elif actual:
                false_negative += 1
            else:
                true_negative += 1
    precision = (
        true_positive / (true_positive + false_positive)
        if true_positive + false_positive
        else 1.0
    )
    recall = (
        true_positive / (true_positive + false_negative)
        if true_positive + false_negative
        else 1.0
    )
    flagged = true_positive + false_positive
    return precision, recall, flagged, true_negative + false_negative + flagged


def test_bench_coi_detection_quality(benchmark, bench_world):
    def run():
        return {
            level: measure_coi(bench_world, level)
            for level in (
                AffiliationCoiLevel.UNIVERSITY,
                AffiliationCoiLevel.COUNTRY,
            )
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            level.value,
            f"{precision:.2f}",
            f"{recall:.2f}",
            flagged,
            total,
        )
        for level, (precision, recall, flagged, total) in results.items()
    ]
    print_table(
        "EXP-COI: detection vs oracle",
        ("affiliation level", "precision", "recall", "flagged", "candidates"),
        rows,
    )

    uni_precision, uni_recall, uni_flagged, __ = results[
        AffiliationCoiLevel.UNIVERSITY
    ]
    __, __, country_flagged, __t = results[AffiliationCoiLevel.COUNTRY]
    assert uni_precision >= 0.8, "COI screening must rarely cry wolf"
    assert uni_recall >= 0.5, "COI screening must catch most true conflicts"
    assert country_flagged >= uni_flagged, "country level is strictly stricter"


def test_bench_coi_mentorship_rule(benchmark, bench_world):
    """The advisor/advisee extension: what it adds and whether it is real.

    Enabling the mentorship rule can only add flags over plain
    co-authorship; every extra flag must correspond to a genuine
    early-career/seniority-gap pattern in the world's ground truth.
    """

    def run():
        hub = ScholarlyHub.deploy(bench_world)
        from repro.baselines.evaluation import CandidateResolver
        from repro.core.filtering import _collect_publication_years

        resolver = CandidateResolver(hub)
        mentorship = CoiConfig(
            affiliation_level=AffiliationCoiLevel.NONE,
            check_coauthorship=False,
            check_mentorship=True,
        )
        ctx = ScoringContext.from_config(PipelineConfig())
        extra_flags = []
        screened = 0
        for manuscript, author in sample_manuscripts(bench_world, count=6):
            result = Minaret(hub).recommend(manuscript)
            years = _collect_publication_years(result.candidates)
            screen = CoiScreen(result.verified_authors, mentorship)
            for candidate in result.candidates:
                screened += 1
                verdict = screen.screen(
                    build_candidate_features(candidate, ctx), years
                )
                mentorship_reasons = [
                    r
                    for r in verdict.reasons
                    if "advisor" in r or "advisee" in r
                ]
                if not mentorship_reasons:
                    continue
                world_id = resolver.world_id(candidate.candidate_id)
                if world_id is None:
                    continue
                # Ground truth: the flagged pair must really show a gap
                # between first-publication years (the observable the
                # heuristic estimates seniority from).
                candidate_pubs = bench_world.author_publications(world_id)
                author_pubs = bench_world.author_publications(author.author_id)
                if not candidate_pubs or not author_pubs:
                    continue
                gap = abs(
                    min(p.year for p in candidate_pubs)
                    - min(p.year for p in author_pubs)
                )
                extra_flags.append(gap)
        return screened, extra_flags

    screened, extra_flags = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nEXP-COI: mentorship rule flagged {len(extra_flags)} of "
        f"{screened} screenings; seniority gaps of flagged pairs: "
        f"{sorted(extra_flags)}"
    )
    assert all(gap >= 5 for gap in extra_flags), (
        "mentorship flags must correspond to real seniority gaps"
    )

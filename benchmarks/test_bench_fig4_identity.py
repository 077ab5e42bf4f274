"""FIG4 — author identity verification (paper Fig. 4).

The demo shows the user a list of candidate profiles per author name and
asks them to confirm the right one.  Quantified here over the whole
planted-collision population:

- how many names are ambiguous (multiple DBLP pages);
- how often the automatic affiliation-evidence resolver decides
  correctly, versus escalating to the user (the paper's manual step);
- accuracy of the naive first-match strategy, as the no-verification
  baseline.
"""

from __future__ import annotations

import pytest

from repro.core.errors import AmbiguousIdentityError
from repro.core.identity import FirstMatchResolver, IdentityVerifier
from repro.core.models import ManuscriptAuthor
from repro.scholarly.records import SourceName
from repro.scholarly.registry import ScholarlyHub
from benchmarks.conftest import print_table


def collision_members(world):
    seen_names = set()
    members = []
    for author in sorted(world.authors.values(), key=lambda a: a.author_id):
        group = world.authors_by_name(author.name)
        if len(group) > 1 and author.name not in seen_names:
            seen_names.add(author.name)
            members.extend(group)
    return members


def test_bench_fig4_disambiguation(benchmark, bench_world):
    members = collision_members(bench_world)
    assert members, "world must contain planted collisions"

    def verify_population():
        hub = ScholarlyHub.deploy(bench_world)
        verifier = IdentityVerifier(hub)
        naive_verifier = IdentityVerifier(hub, resolver=FirstMatchResolver())
        outcomes = []
        for author in members:
            submitted = ManuscriptAuthor(
                author.name, affiliation=author.affiliations[-1].institution
            )
            expected_pid = hub.dblp_service.pid_of(author.author_id)
            try:
                verified = verifier.verify(submitted)
                auto = verified.profile.source_id(SourceName.DBLP) == expected_pid
                escalated = False
            except AmbiguousIdentityError:
                auto = False
                escalated = True
            naive = naive_verifier.verify(submitted)
            naive_ok = naive.profile.source_id(SourceName.DBLP) == expected_pid
            outcomes.append((author, auto, escalated, naive_ok))
        return outcomes

    outcomes = benchmark.pedantic(verify_population, rounds=1, iterations=1)

    total = len(outcomes)
    auto_correct = sum(1 for __, auto, __e, __n in outcomes if auto)
    escalated = sum(1 for __, __a, esc, __n in outcomes if esc)
    naive_correct = sum(1 for __, __a, __e, naive in outcomes if naive)
    print_table(
        "FIG4: identity verification over planted name collisions",
        ("strategy", "correct", "escalated to user", "total"),
        [
            ("affiliation-evidence (MINARET)", auto_correct, escalated, total),
            ("first-match (no verification)", naive_correct, 0, total),
        ],
    )

    # MINARET's evidence-based resolution must beat blind first-match.
    # It never mislinks silently: each author is linked correctly or
    # escalated to the user, and escalation is the exception.
    assert auto_correct + escalated == total
    assert 2 * escalated < total
    assert auto_correct > naive_correct
    assert naive_correct < total  # first-match demonstrably mislinks


def test_bench_fig4_match_counts(benchmark, bench_world):
    """Candidates-per-author distribution: the Fig. 4 pick list size."""
    hub = ScholarlyHub.deploy(bench_world)
    collision_names = sorted({a.name for a in collision_members(bench_world)})
    other_names = sorted(
        {a.name for a in bench_world.authors.values()} - set(collision_names)
    )
    names = collision_names + other_names[:100]

    def count_matches():
        return {name: len(hub.dblp.search_author(name)) for name in names}

    counts = benchmark.pedantic(count_matches, rounds=1, iterations=1)
    from collections import Counter

    distribution = Counter(counts.values())
    print_table(
        "FIG4: DBLP profile matches per submitted name",
        ("matches", "names"),
        sorted(distribution.items()),
    )
    assert distribution.get(1, 0) > 0
    assert any(k > 1 for k in distribution)

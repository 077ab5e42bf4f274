"""Tests for the canonical record types and metric helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scholarly.records import (
    Affiliation,
    MergedProfile,
    Metrics,
    SourceName,
    compute_h_index,
    compute_i10_index,
)


class TestHIndex:
    def test_known_value(self):
        assert compute_h_index([10, 8, 5, 4, 3]) == 4

    def test_empty(self):
        assert compute_h_index([]) == 0

    def test_all_zeros(self):
        assert compute_h_index([0, 0, 0]) == 0

    def test_single_cited_paper(self):
        assert compute_h_index([100]) == 1

    def test_uniform(self):
        assert compute_h_index([3, 3, 3, 3]) == 3

    def test_order_invariant(self):
        assert compute_h_index([1, 5, 3]) == compute_h_index([5, 3, 1])

    @given(st.lists(st.integers(0, 100), max_size=50))
    def test_bounded_by_paper_count(self, counts):
        h = compute_h_index(counts)
        assert 0 <= h <= len(counts)

    @given(st.lists(st.integers(0, 100), max_size=50))
    def test_definition(self, counts):
        h = compute_h_index(counts)
        ranked = sorted(counts, reverse=True)
        assert sum(1 for c in ranked[:h] if c >= h) == h
        if h < len(ranked):
            assert ranked[h] < h + 1


class TestI10:
    def test_known_value(self):
        assert compute_i10_index([50, 10, 9, 3]) == 2

    def test_empty(self):
        assert compute_i10_index([]) == 0


class TestMergedProfile:
    def make_profile(self):
        return MergedProfile(
            canonical_name="Ada Lovelace",
            source_ids=(
                (SourceName.DBLP, "Ada Lovelace"),
                (SourceName.GOOGLE_SCHOLAR, "sch_abc"),
            ),
            affiliations=(
                Affiliation("Analytical Engines Ltd", "UK", 2010, 2014),
                Affiliation("Babbage Institute", "UK", 2015, None),
            ),
            metrics=Metrics(citations=100, h_index=5, i10_index=3),
        )

    def test_source_id_lookup(self):
        profile = self.make_profile()
        assert profile.source_id(SourceName.DBLP) == "Ada Lovelace"
        assert profile.source_id(SourceName.PUBLONS) is None

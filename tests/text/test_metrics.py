"""Unit and property tests for the Jaccard set similarity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.metrics import jaccard_similarity

small_sets = st.sets(st.sampled_from("abcdefgh"), max_size=8)


class TestJaccard:
    def test_known_value(self):
        assert jaccard_similarity({"rdf", "sparql"}, {"rdf", "owl"}) == pytest.approx(
            1 / 3
        )

    def test_identical(self):
        assert jaccard_similarity({"a"}, {"a"}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard_similarity({"a"}, set()) == 0.0

    def test_accepts_lists_with_duplicates(self):
        assert jaccard_similarity(["a", "a"], ["a"]) == 1.0

    @given(small_sets, small_sets)
    def test_symmetric(self, a, b):
        assert jaccard_similarity(a, b) == jaccard_similarity(b, a)

    @given(small_sets, small_sets)
    def test_bounded(self, a, b):
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0

    @given(small_sets)
    def test_self_similarity_is_one(self, a):
        assert jaccard_similarity(a, a) == 1.0

"""Tests for ranking-quality metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.metrics import (
    kendall_tau,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)

rankings = st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8)


class TestPrecision:
    def test_known_value(self):
        assert precision_at_k(["a", "b", "c"], {"a", "c"}, 2) == 0.5

    def test_perfect(self):
        assert precision_at_k(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_short_list_penalized(self):
        assert precision_at_k(["a"], {"a"}, 10) == pytest.approx(0.1)

    def test_empty_relevant(self):
        assert precision_at_k(["a"], set(), 1) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k(["a"], {"a"}, 0)


class TestRecall:
    def test_known_value(self):
        assert recall_at_k(["a", "b"], {"a", "c"}, 2) == 0.5

    def test_no_relevant_items(self):
        assert recall_at_k(["a"], set(), 5) == 0.0

    def test_all_found(self):
        assert recall_at_k(["a", "b", "c"], {"b", "c"}, 3) == 1.0

    @given(rankings, st.sets(st.sampled_from("abcdefgh"), max_size=8))
    def test_recall_monotone_in_k(self, ranking, relevant):
        values = [recall_at_k(ranking, relevant, k) for k in range(1, 9)]
        assert values == sorted(values)


class TestNdcg:
    def test_ideal_order_scores_one(self):
        gains = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert ndcg_at_k(["a", "b", "c"], gains, 3) == pytest.approx(1.0)

    def test_reversed_order_scores_less(self):
        gains = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert ndcg_at_k(["c", "b", "a"], gains, 3) < 1.0

    def test_unknown_items_zero_gain(self):
        gains = {"a": 1.0}
        assert ndcg_at_k(["x", "y"], gains, 2) == 0.0

    def test_no_positive_gains(self):
        assert ndcg_at_k(["a"], {"a": 0.0}, 1) == 0.0

    @given(
        st.lists(st.sampled_from("abcde"), unique=True, min_size=1, max_size=5),
        st.dictionaries(st.sampled_from("abcde"), st.floats(0.0, 5.0), max_size=5),
    )
    def test_bounded(self, ranking, gains):
        assert 0.0 <= ndcg_at_k(ranking, gains, 5) <= 1.0 + 1e-9


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_rankings(self):
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_single_swap(self):
        assert kendall_tau(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(1 / 3)

    def test_fewer_than_two_common(self):
        assert kendall_tau(["a"], ["b"]) == 1.0

    def test_ignores_uncommon_items(self):
        assert kendall_tau(["a", "x", "b"], ["a", "y", "b"]) == 1.0

    @given(rankings, rankings)
    def test_bounded_and_antisymmetric(self, a, b):
        tau = kendall_tau(a, b)
        assert -1.0 <= tau <= 1.0

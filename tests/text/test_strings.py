"""Unit and property tests for the Jaro family and name similarity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.strings import (
    jaro_similarity,
    jaro_winkler_similarity,
    name_similarity,
)

short_text = st.text(alphabet="abcdef", max_size=8)


class TestJaro:
    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-4)

    def test_identical(self):
        assert jaro_similarity("dixon", "dixon") == 1.0

    def test_no_match(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        value = jaro_similarity(a, b)
        assert value == pytest.approx(jaro_similarity(b, a))
        assert 0.0 <= value <= 1.0


class TestJaroWinkler:
    def test_known_value(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.9611, abs=1e-4
        )

    def test_prefix_boost(self):
        plain = jaro_similarity("prefixed", "prefixes")
        boosted = jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted > plain

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_scale=0.5)

    @given(short_text, short_text)
    def test_geq_jaro_and_bounded(self, a, b):
        jw = jaro_winkler_similarity(a, b)
        assert jw >= jaro_similarity(a, b) - 1e-12
        assert 0.0 <= jw <= 1.0


class TestNameSimilarity:
    def test_initials_match_full_given_name(self):
        assert name_similarity("Moawad, Mohamed R.", "M. R. Moawad") > 0.95

    def test_different_family_names_score_low(self):
        assert name_similarity("Mohamed Moawad", "Mohamed Maher") < 0.9

    def test_sibling_names_distinguished(self):
        assert name_similarity("Lei Zhou", "Wei Zhou") < 0.88

    def test_family_only_form_is_conservative(self):
        assert name_similarity("Zhou", "Lei Zhou") <= 0.5

    def test_empty_name(self):
        assert name_similarity("", "Lei Zhou") == 0.0

    def test_symmetry_on_typical_names(self):
        a, b = "Sherif Sakr", "Sakr, Sherif"
        assert name_similarity(a, b) == pytest.approx(name_similarity(b, a))

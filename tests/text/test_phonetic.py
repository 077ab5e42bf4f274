"""Tests for phonetic surname codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.phonetic import nysiis, phonetic_family_match, soundex
from repro.text.strings import name_similarity

surnames = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


class TestSoundex:
    def test_classic_values(self):
        assert soundex("Robert") == "R163"
        assert soundex("Rupert") == "R163"
        assert soundex("Ashcraft") == soundex("Ashcroft")

    def test_spelling_variants_collapse(self):
        assert soundex("Schmidt") == soundex("Schmitt")
        assert soundex("Sorensen") == soundex("Sorenson")

    def test_different_names_differ(self):
        assert soundex("Zhang") != soundex("Moawad")

    def test_diacritics_folded(self):
        assert soundex("Sørensen") == soundex("Sorensen")

    def test_empty(self):
        assert soundex("") == ""
        assert soundex("!!!") == ""

    def test_short_name_padded(self):
        code = soundex("Li")
        assert len(code) == 4
        assert code.endswith("00")

    @given(surnames)
    def test_format(self, name):
        code = soundex(name)
        assert len(code) == 4
        assert code[0].isupper()
        assert code[1:].isdigit()


class TestNysiis:
    def test_variants_collapse(self):
        assert nysiis("Moawad") == nysiis("Mouawad")
        assert nysiis("Knight") == nysiis("Night")

    def test_mac_prefix(self):
        assert nysiis("MacDonald") == nysiis("McDonald")

    def test_empty(self):
        assert nysiis("") == ""

    @given(surnames)
    def test_nonempty_for_alpha_input(self, name):
        assert nysiis(name)

    @given(surnames)
    def test_deterministic(self, name):
        assert nysiis(name) == nysiis(name)


class TestFamilyMatch:
    def test_phonetic_agreement(self):
        assert phonetic_family_match("Schmidt", "Schmitt")

    def test_disagreement(self):
        assert not phonetic_family_match("Zhang", "Kumar")

    def test_empty_never_matches(self):
        assert not phonetic_family_match("", "")
        assert not phonetic_family_match("Zhang", "")


class TestNameSimilarityIntegration:
    def test_spelling_drift_boosted(self):
        drifted = name_similarity("Anna Schmidt", "Anna Schmitt")
        assert drifted > 0.9

    def test_same_person_across_transliteration(self):
        assert name_similarity("Mohamed Moawad", "Mohamed Mouawad") > 0.9

    def test_phonetic_boost_capped_below_exact(self):
        exact = name_similarity("Anna Schmidt", "Anna Schmidt")
        drifted = name_similarity("Anna Schmidt", "Anna Schmitt")
        assert drifted < exact

    def test_unrelated_names_not_boosted(self):
        assert name_similarity("Anna Schmidt", "Anna Kumar") < 0.88

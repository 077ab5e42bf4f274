"""Unit tests for string and name normalization."""

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.normalize import (
    canonical_person_name,
    family_name,
    fold_diacritics,
    given_names,
    normalize_keyword,
    normalize_whitespace,
    slugify,
)


class TestFoldDiacritics:
    def test_accents_are_stripped(self):
        assert fold_diacritics("Müller") == "Muller"

    def test_cedilla_and_acute(self):
        assert fold_diacritics("François José") == "Francois Jose"

    def test_plain_ascii_unchanged(self):
        assert fold_diacritics("Smith") == "Smith"

    def test_empty_string(self):
        assert fold_diacritics("") == ""

    def test_non_decomposable_characters_survive(self):
        # CJK has no ASCII decomposition and must not be dropped.
        assert fold_diacritics("周磊") == "周磊"

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_ascii_matches_the_nfkd_path(self, text):
        decomposed = unicodedata.normalize("NFKD", text)
        folded = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
        assert fold_diacritics(text) == folded == text


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("a  b\t c\n d") == "a b c d"

    def test_strips_ends(self):
        assert normalize_whitespace("  x  ") == "x"

    def test_empty(self):
        assert normalize_whitespace("   ") == ""


class TestNormalizeKeyword:
    def test_lowercases_and_trims(self):
        assert normalize_keyword("  Semantic Web ") == "semantic web"

    def test_hyphen_equals_space(self):
        assert normalize_keyword("machine-learning") == normalize_keyword(
            "machine learning"
        )

    def test_punctuation_removed(self):
        assert normalize_keyword("graphs!") == "graphs"

    def test_diacritics_folded(self):
        assert normalize_keyword("Données") == "donnees"


class TestSlugify:
    def test_basic(self):
        assert slugify("Semantic Web!") == "semantic-web"

    def test_leading_trailing_symbols(self):
        assert slugify("--RDF--") == "rdf"

    def test_numbers_kept(self):
        assert slugify("Web 2.0") == "web-2-0"


class TestCanonicalPersonName:
    def test_surname_first_form(self):
        assert canonical_person_name("Moawad, Mohamed R.") == "mohamed r moawad"

    def test_plain_form(self):
        assert canonical_person_name("Mohamed R. Moawad") == "mohamed r moawad"

    def test_suffix_removed(self):
        assert canonical_person_name("John Smith Jr.") == "john smith"

    def test_diacritics(self):
        assert canonical_person_name("Sørén Kierkegaard") == "søren kierkegaard"

    def test_apostrophe(self):
        assert canonical_person_name("Conor O'Brien") == "conor o brien"

    def test_empty(self):
        assert canonical_person_name("") == ""

    def test_same_for_both_written_forms(self):
        assert canonical_person_name("Sakr, Sherif") == canonical_person_name(
            "Sherif Sakr"
        )


class TestFamilyAndGivenNames:
    def test_family_from_comma_form(self):
        assert family_name("Moawad, Mohamed") == "moawad"

    def test_family_from_plain_form(self):
        assert family_name("Mohamed Moawad") == "moawad"

    def test_given_names(self):
        assert given_names("Moawad, Mohamed R.") == ["mohamed", "r"]

    def test_single_token_has_no_given(self):
        assert given_names("Moawad") == []

    def test_empty_family(self):
        assert family_name("") == ""

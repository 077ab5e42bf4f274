"""Text processing substrate for the MINARET reproduction.

The original MINARET system scrapes scholarly websites and therefore needs
a fair amount of light-weight natural-language machinery: name
normalization for author identity verification, tokenization for matching
manuscript topics against publication titles, and the string and set
similarities identity verification compares names and affiliations with.
This package provides all of it in pure Python.

Modules
-------
normalize
    Unicode/diacritic folding, whitespace cleanup, person-name
    canonicalization (surname-first forms, family and given names) and
    slugs.
tokenize
    Tokenizer and stopword handling for titles and affiliations.
metrics
    Jaccard similarity of token sets.
strings
    Jaro and Jaro-Winkler similarity and the structured person-name
    similarity used for fuzzy author-name matching.
phonetic
    Soundex and NYSIIS codes that corroborate family-name spelling drift.
"""

from repro.text.metrics import jaccard_similarity
from repro.text.phonetic import nysiis, phonetic_family_match, soundex
from repro.text.normalize import (
    canonical_person_name,
    fold_diacritics,
    normalize_keyword,
    normalize_whitespace,
    slugify,
)
from repro.text.strings import (
    jaro_similarity,
    jaro_winkler_similarity,
    name_similarity,
)
from repro.text.tokenize import DEFAULT_STOPWORDS, tokenize

__all__ = [
    "DEFAULT_STOPWORDS",
    "canonical_person_name",
    "fold_diacritics",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "name_similarity",
    "normalize_keyword",
    "normalize_whitespace",
    "nysiis",
    "phonetic_family_match",
    "slugify",
    "soundex",
    "tokenize",
]

"""String and person-name normalization.

Author identity verification (paper §2.1) has to reconcile the many ways a
scholar's name is written across DBLP, Google Scholar, ACM DL, ORCID and
ResearcherID: diacritics ("Sørensen" vs "Sorensen"), initials ("M. R.
Moawad" vs "Mohamed R. Moawad"), surname-first forms ("Moawad, Mohamed"),
and inconsistent whitespace or punctuation.  The functions here produce the
canonical forms the matching layer compares.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

_WHITESPACE_RE = re.compile(r"\s+")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")
_NAME_PUNCT_RE = re.compile(r"[.’']")
_SUFFIXES = frozenset({"jr", "sr", "ii", "iii", "iv", "phd", "md"})


def fold_diacritics(text: str) -> str:
    """Replace accented characters with their closest ASCII equivalents.

    Characters that do not decompose to ASCII (e.g. CJK) are kept as-is so
    that east-Asian names remain distinguishable.

    >>> fold_diacritics("Sørensen Müller")
    'Sørensen Muller'
    """
    if text.isascii():
        # NFKD maps every ASCII character to itself, and none combines.
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


def normalize_keyword(keyword: str) -> str:
    """Canonicalize a topic keyword for ontology lookup.

    Lower-cases, folds diacritics, collapses whitespace, and strips
    surrounding punctuation.  Hyphens are treated as spaces so that
    "machine-learning" and "machine learning" collide.

    Results are memoized (bounded LRU): ranking and COI screening
    normalize the same interests, venues and keywords over and over.

    >>> normalize_keyword("  Machine-Learning ")
    'machine learning'
    """
    return _normalize_keyword_cached(keyword)


@lru_cache(maxsize=16384)
def _normalize_keyword_cached(keyword: str) -> str:
    text = fold_diacritics(keyword).lower()
    text = text.replace("-", " ").replace("_", " ")
    text = re.sub(r"[^\w\s]", "", text)
    return normalize_whitespace(text)


def slugify(text: str) -> str:
    """Turn arbitrary text into a lowercase dash-separated identifier.

    >>> slugify("Semantic Web!")
    'semantic-web'
    """
    folded = fold_diacritics(text).lower()
    slug = _NON_ALNUM_RE.sub("-", folded).strip("-")
    return slug


def _strip_suffixes(parts: list[str]) -> list[str]:
    """Remove generational/degree suffixes from a token list."""
    return [p for p in parts if p.lower().strip(".") not in _SUFFIXES]


def canonical_person_name(name: str) -> str:
    """Return a canonical "given middle family" lower-case form of a name.

    Handles "Family, Given" forms, folds diacritics, removes punctuation
    and degree suffixes, and collapses whitespace.

    >>> canonical_person_name("Moawad, Mohamed R.")
    'mohamed r moawad'
    """
    text = fold_diacritics(name)
    if "," in text:
        family, __, given = text.partition(",")
        text = f"{given} {family}"
    text = _NAME_PUNCT_RE.sub(" ", text)
    parts = _strip_suffixes(normalize_whitespace(text).split(" "))
    return " ".join(p.lower() for p in parts if p)


def family_name(name: str) -> str:
    """Extract the family name from any supported name form.

    >>> family_name("Moawad, Mohamed")
    'moawad'
    """
    canonical = canonical_person_name(name)
    if not canonical:
        return ""
    return canonical.split(" ")[-1]


def given_names(name: str) -> list[str]:
    """Extract the given (non-family) name tokens, canonicalized.

    >>> given_names("Moawad, Mohamed R.")
    ['mohamed', 'r']
    """
    canonical = canonical_person_name(name)
    if not canonical:
        return []
    return canonical.split(" ")[:-1]

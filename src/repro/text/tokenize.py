"""Tokenization of publication titles and affiliations.

The recency ranking component (paper §2.3) matches expanded keywords
against the token set of a publication's title when it carries no
keyword list, and identity verification (§2.1) compares affiliation
token sets.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.text.normalize import normalize_keyword

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Minimal English stopword list tuned for scholarly topic strings.  It is
#: deliberately small: topic phrases like "internet of things" must keep
#: "of" out but retain "things".
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    {
        "a",
        "an",
        "and",
        "as",
        "at",
        "by",
        "for",
        "from",
        "in",
        "into",
        "is",
        "of",
        "on",
        "or",
        "over",
        "the",
        "to",
        "via",
        "with",
    }
)


def tokenize(
    text: str,
    stopwords: frozenset[str] | None = DEFAULT_STOPWORDS,
    min_length: int = 1,
) -> list[str]:
    """Split ``text`` into normalized word tokens.

    Parameters
    ----------
    text:
        Raw input; it is first run through :func:`normalize_keyword`.
    stopwords:
        Tokens to drop.  Pass ``None`` to keep everything.
    min_length:
        Drop tokens shorter than this many characters.

    Results are memoized (bounded LRU) per ``(text, stopwords,
    min_length)``; a fresh list is returned on every call so callers may
    mutate it.

    >>> tokenize("Efficient Processing of RDF Data!")
    ['efficient', 'processing', 'rdf', 'data']
    """
    if stopwords is not None and not isinstance(stopwords, frozenset):
        stopwords = frozenset(stopwords)
    return list(_tokenize_cached(text, stopwords, min_length))


@lru_cache(maxsize=16384)
def _tokenize_cached(
    text: str, stopwords: frozenset[str] | None, min_length: int
) -> tuple[str, ...]:
    normalized = normalize_keyword(text)
    tokens = _TOKEN_RE.findall(normalized)
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    if min_length > 1:
        tokens = [t for t in tokens if len(t) >= min_length]
    return tuple(tokens)

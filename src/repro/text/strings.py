"""String similarities for fuzzy name matching.

Author identity verification (paper §2.1) matches names across sources
that abbreviate, transliterate and typo them differently.  MINARET's
matching layer uses Jaro-Winkler (it privileges agreement on the prefix,
which survives abbreviation poorly but typos well), backed by a phonetic
check on family names.
"""

from __future__ import annotations

from repro.text.normalize import family_name, given_names


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity in [0, 1].

    >>> round(jaro_similarity("martha", "marhta"), 4)
    0.9444
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if not len_a or not len_b:
        return 0.0
    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_b)
        for j in range(start, end):
            if matched_b[j] or b[j] != char_a:
                continue
            matched_a[i] = True
            matched_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if not matched_a[i]:
            continue
        while not matched_b[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by common-prefix agreement.

    ``prefix_scale`` must lie in [0, 0.25] to keep the result in [0, 1];
    the conventional 0.1 is the default.

    >>> round(jaro_winkler_similarity("martha", "marhta"), 4)
    0.9611
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError(f"prefix_scale must be in [0, 0.25], got {prefix_scale}")
    jaro = jaro_similarity(a, b)
    prefix_len = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix_len == 4:
            break
        prefix_len += 1
    return jaro + prefix_len * prefix_scale * (1.0 - jaro)


def name_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1] between two person names in any written form.

    The comparison is structured the way bibliographic matchers work:

    - family names are compared with Jaro-Winkler (they are rarely
      abbreviated, so string similarity is meaningful);
    - given names are matched pairwise, treating a single letter as a
      compatible initial ("M." matches "Mohamed" perfectly);
    - the result is the family score weighted 0.6 and the mean given-name
      score weighted 0.4.

    >>> name_similarity("Moawad, Mohamed R.", "M. R. Moawad") > 0.95
    True
    """
    from repro.text.phonetic import phonetic_family_match

    family_a, family_b = family_name(a), family_name(b)
    if not family_a or not family_b:
        return 0.0
    family_score = jaro_winkler_similarity(family_a, family_b)
    if family_score < 0.95 and phonetic_family_match(family_a, family_b):
        # Spelling drift with phonetic agreement ("Schmidt"/"Schmitt"):
        # corroborated, but never better than near-exact string match.
        family_score = max(family_score, 0.92)
    givens_a, givens_b = given_names(a), given_names(b)
    if not givens_a and not givens_b:
        return family_score
    if not givens_a or not givens_b:
        # One side is family-only ("Moawad"); stay conservative.
        return 0.5 * family_score
    pair_count = min(len(givens_a), len(givens_b))
    given_scores = []
    for token_a, token_b in zip(givens_a, givens_b):
        given_scores.append(_given_token_similarity(token_a, token_b))
    given_score = sum(given_scores) / pair_count
    return 0.6 * family_score + 0.4 * given_score


def _given_token_similarity(a: str, b: str) -> float:
    """Compare two given-name tokens, treating initials as wildcards.

    The first letters must agree — a bibliography abbreviates "Lei" to
    "L.", never to "W.", so disagreeing initials are hard evidence of
    different people regardless of how string-similar the rest is.
    """
    if a[0] != b[0]:
        return 0.0
    if len(a) == 1 or len(b) == 1:
        return 1.0
    return jaro_winkler_similarity(a, b)

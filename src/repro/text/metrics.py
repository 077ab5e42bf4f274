"""Set similarity for the identity resolver's affiliation evidence (paper §2.1)."""

from __future__ import annotations

from collections.abc import Collection


def jaccard_similarity(a: Collection[object], b: Collection[object]) -> float:
    """Jaccard similarity |A ∩ B| / |A ∪ B| of two collections.

    Returns 1.0 when both are empty (identical-emptiness convention),
    matching the behaviour expected by the filtering thresholds: two empty
    keyword sets are vacuously identical.

    >>> jaccard_similarity({"rdf", "sparql"}, {"rdf", "owl"})
    0.3333333333333333
    """
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union

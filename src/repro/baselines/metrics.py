"""Ranking-quality metrics.

Standard IR metrics over recommendation lists, used by EXP-QUALITY and
the weight-ablation experiments.  All functions take plain id sequences
so they are equally usable against oracle sets and between two system
rankings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence, Set


def precision_at_k(recommended: Sequence[str], relevant: Set[str], k: int) -> float:
    """Fraction of the top-``k`` recommendations that are relevant.

    Computed over exactly ``k`` slots: a system that returns fewer than
    ``k`` items is penalized for the empty slots, matching the editor's
    view ("I asked for 10 reviewers").

    >>> precision_at_k(["a", "b", "c"], {"a", "c"}, 2)
    0.5
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / k


def recall_at_k(recommended: Sequence[str], relevant: Set[str], k: int) -> float:
    """Fraction of all relevant items found in the top ``k``.

    Returns 0.0 when there are no relevant items (nothing to recall).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        return 0.0
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / len(relevant)


def ndcg_at_k(
    recommended: Sequence[str],
    gains: dict[str, float],
    k: int,
) -> float:
    """Normalized discounted cumulative gain with graded relevance.

    ``gains`` maps item → relevance grade (missing items grade 0).  The
    ideal ordering is the gains sorted descending.  Returns 0.0 when no
    item carries positive gain.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = sum(
        gains.get(item, 0.0) / math.log2(rank + 1)
        for rank, item in enumerate(recommended[:k], start=1)
    )
    ideal_gains = sorted((g for g in gains.values() if g > 0), reverse=True)[:k]
    ideal = sum(
        gain / math.log2(rank + 1) for rank, gain in enumerate(ideal_gains, start=1)
    )
    if ideal == 0.0:
        return 0.0
    return dcg / ideal


def kendall_tau(ranking_a: Sequence[str], ranking_b: Sequence[str]) -> float:
    """Kendall's tau between two rankings of the same item set.

    Compares pair orderings over the items common to both rankings
    (others are ignored).  Returns 1.0 for identical order, -1.0 for
    full reversal, and 1.0 when fewer than two common items exist
    (vacuously concordant).
    """
    common = [item for item in ranking_a if item in set(ranking_b)]
    if len(common) < 2:
        return 1.0
    position_b = {item: index for index, item in enumerate(ranking_b)}
    concordant = 0
    discordant = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            if position_b[common[i]] < position_b[common[j]]:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total

"""Aggregation primitives shared by the engine and its reference oracle.

Both :func:`repro.scoring.engine.rank_with_plane` (production ranking)
and :class:`repro.core.ranking.NaiveRanker` (the oracle tests hold it
to) fold normalized component scores through these exact functions, so
the two produce the same floats down to the last ULP: identical
summation order, identical operations.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def weighted_total(components: Mapping[str, float], weights: Mapping[str, float]) -> float:
    """Weighted sum over *components* in their mapping iteration order."""
    return sum(weights[name] * value for name, value in components.items())


def owa_aggregate(values: Sequence[float], owa_weights: Sequence[float] | None) -> float:
    """Ordered weighted average of *values*.

    Values are sorted descending and folded against *owa_weights*
    (truncated or zero-padded to the value count).  When the applicable
    weights sum to zero — an all-zero tuple, or a valid tuple whose mass
    sits entirely in truncated positions, e.g. ``(0, 0, 0, 0, 0, 0, 1)``
    against six components — fall back to the uniform mean instead of
    dividing by zero.
    """
    ordered = sorted(values, reverse=True)
    if not ordered:
        return 0.0
    if owa_weights is None:
        return sum(ordered) / len(ordered)
    padded = list(owa_weights[: len(ordered)])
    if len(padded) < len(ordered):
        padded.extend([0.0] * (len(ordered) - len(padded)))
    total_weight = sum(padded)
    if total_weight == 0:
        return sum(ordered) / len(ordered)
    return sum(w * v for w, v in zip(padded, ordered)) / total_weight

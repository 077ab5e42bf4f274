"""Warm-path retrieval plane: cross-request caching for the hot path.

Candidate extraction dominates a recommendation's request volume (see
EXPERIMENTS.md FIG2); this subsystem amortizes it, and the author
verification and venue resolution before it, across requests with one
shared store of interest rankings and assembled profiles, and
singleflight coalescing of concurrent identical fetches.  See
:mod:`repro.retrieval.plane` for the full design.
"""

from repro.retrieval.plane import RetrievalPlane
from repro.retrieval.singleflight import SingleFlight

__all__ = ["RetrievalPlane", "SingleFlight"]

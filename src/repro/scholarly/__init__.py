"""Scholarly-sources substrate: six simulated services + scraper clients.

The paper extracts from Google Scholar, DBLP, Publons, ACM DL, ORCID and
ResearcherID on-the-fly.  This package simulates each with the same
*information content* its real counterpart publishes, served over the
simulated web layer (:mod:`repro.web`) so that coverage gaps, latency,
rate limits and transient failures are all exercised.

Start with :class:`~repro.scholarly.registry.ScholarlyHub`, which deploys
everything from a generated world in one call.
"""

from repro.scholarly.acm import AcmClient, AcmService
from repro.scholarly.dblp import DblpClient, DblpService
from repro.scholarly.merge import merge_source_profiles
from repro.scholarly.orcid import OrcidClient, OrcidService
from repro.scholarly.publons import PublonsClient, PublonsService
from repro.scholarly.records import (
    Affiliation,
    MergedProfile,
    Metrics,
    Publication,
    ReviewRecord,
    SourceName,
    SourcePage,
    SourceProfile,
    Venue,
    VenueType,
    compute_h_index,
    compute_i10_index,
)
from repro.scholarly.registry import DEFAULT_BEHAVIOUR, ScholarlyHub, SourceBehaviour
from repro.scholarly.researcherid import ResearcherIdClient, ResearcherIdService
from repro.scholarly.scholar import GoogleScholarClient, GoogleScholarService

__all__ = [
    "AcmClient",
    "AcmService",
    "Affiliation",
    "DEFAULT_BEHAVIOUR",
    "DblpClient",
    "DblpService",
    "MergedProfile",
    "Metrics",
    "OrcidClient",
    "OrcidService",
    "Publication",
    "PublonsClient",
    "PublonsService",
    "ResearcherIdClient",
    "ResearcherIdService",
    "ReviewRecord",
    "ScholarlyHub",
    "SourceBehaviour",
    "SourceName",
    "SourcePage",
    "SourceProfile",
    "Venue",
    "VenueType",
    "GoogleScholarClient",
    "GoogleScholarService",
    "compute_h_index",
    "compute_i10_index",
    "merge_source_profiles",
]

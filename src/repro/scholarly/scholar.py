"""Simulated Google Scholar: metrics, interests and interest search.

What real Google Scholar offers:

- self-maintained profiles with **research interest keywords** — the
  primary index MINARET queries to retrieve candidate reviewers
  (paper §2.1);
- citation metrics: total citations, H-index, i10-index (§1);
- per-publication citation counts (Scholar's counts famously run higher
  than curated libraries'; the simulation inflates them ~1.3× over the
  world's ground truth);
- no review history, and patchy affiliation data (one free-text line).

Coverage is high but not universal; scholars without a profile simply
return 404, which the extraction phase must treat as partial coverage.
"""

from __future__ import annotations

import random

from repro.scholarly.records import (
    Affiliation,
    Metrics,
    SourceName,
    SourcePage,
    SourceProfile,
    compute_h_index,
    compute_i10_index,
)
from repro.scholarly.source import (
    SourceClient,
    SourceService,
    noisy_interests,
    stable_source_id,
)
from repro.storage.documents import DocumentStore
from repro.storage.inverted import InvertedIndex
from repro.text.normalize import canonical_person_name, normalize_keyword
from repro.web.crawler import Crawler
from repro.web.http import HttpRequest, NotFoundError
from repro.world.model import ScholarlyWorld

SCHOLAR_HOST = "scholar.google.com"

#: Scholar's citation counts relative to ground truth.
_CITATION_INFLATION = 1.3


class GoogleScholarService(SourceService):
    """Server side of the simulated Google Scholar."""

    source = SourceName.GOOGLE_SCHOLAR
    host = SCHOLAR_HOST

    def __init__(self, world: ScholarlyWorld, interest_noise: float | None = None):
        super().__init__()
        self._world = world
        noise = (
            interest_noise
            if interest_noise is not None
            else getattr(world.config, "interest_noise", 0.15)
        )
        self._profiles = DocumentStore(name="scholar-profiles")
        self._profiles.create_index("name", lambda d: d["normalized_name"])
        self._interest_index = InvertedIndex()
        self._user_of: dict[str, str] = {}
        self._build(noise)
        self.route("/citations/search", self._search)
        self.route("/citations/profile", self._profile)
        self.route("/citations/interest", self._interest_search)

    def user_of(self, author_id: str) -> str | None:
        """The Scholar user id for a world author, if covered."""
        return self._user_of.get(author_id)

    def _build(self, noise: float) -> None:
        for author_id in sorted(self._world.authors):
            author = self._world.authors[author_id]
            if self.source not in author.covered_by:
                continue
            user = stable_source_id(self.source, author_id, prefix="sch_")
            self._user_of[author_id] = user
            rng = random.Random(f"scholar:{author_id}:citations")
            publications = []
            inflated_counts = []
            for pub_id in self._world.publications_by_author.get(author_id, []):
                pub = self._world.publications[pub_id]
                inflated = int(pub.citation_count * _CITATION_INFLATION) + (
                    1 if rng.random() < 0.5 else 0
                )
                inflated_counts.append(inflated)
                publications.append(
                    {
                        "id": pub.pub_id,
                        "title": pub.title,
                        "year": pub.year,
                        "citations": inflated,
                        "keywords": list(pub.keywords),
                    }
                )
            interests = noisy_interests(self._world, author, self.source, noise)
            latest = author.affiliations[-1] if author.affiliations else None
            payload = {
                "user": user,
                "name": author.name,
                "normalized_name": canonical_person_name(author.name),
                "affiliation": latest.institution if latest else "",
                "country": latest.country if latest else "",
                "interests": list(interests),
                "citations": sum(inflated_counts),
                "h_index": compute_h_index(inflated_counts),
                "i10_index": compute_i10_index(inflated_counts),
                "publications": publications,
            }
            self._profiles.insert(payload, doc_id=user)
            interest_weights = {
                normalize_keyword(keyword): 1.0 for keyword in interests
            }
            if interest_weights:
                self._interest_index.add(user, interest_weights)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _search(self, request: HttpRequest) -> object:
        query = str(request.param("q", ""))
        normalized = canonical_person_name(query)
        hits = [
            {
                "user": doc.payload["user"],
                "name": doc.payload["name"],
                "affiliation": doc.payload["affiliation"],
                "interests": doc.payload["interests"],
            }
            for doc in self._profiles.lookup("name", normalized)
        ]
        hits.sort(key=lambda h: h["user"])
        return {"query": query, "hits": hits}

    def _profile(self, request: HttpRequest) -> object:
        user = str(request.param("user", ""))
        doc = self._profiles.get_or_none(user)
        if doc is None:
            raise NotFoundError(request, f"no scholar profile {user!r}")
        return doc.payload

    def _interest_search(self, request: HttpRequest) -> object:
        keyword = normalize_keyword(str(request.param("q", "")))
        limit = int(request.param("limit", 50))
        postings = self._interest_index.search([keyword], limit=limit, use_idf=False)
        return {
            "keyword": keyword,
            "users": [p.doc_id for p in postings],
        }


class GoogleScholarClient(SourceClient):
    """Scraper side of Google Scholar.

    One method per page: :meth:`profile_page` returns everything the
    ``/citations/profile`` page carries from a single request, so no
    caller fetches the page again for another field.
    """

    source = SourceName.GOOGLE_SCHOLAR

    def __init__(self, crawler: Crawler, host: str = SCHOLAR_HOST):
        super().__init__(crawler, host)

    def search_author(self, name: str) -> list[dict]:
        """Profile hits for a name: ``[{user, name, affiliation, interests}]``."""
        payload = self._get("/citations/search", {"q": name})
        return list(payload["hits"])

    def profile_page(self, user: str) -> SourcePage | None:
        """The profile page, from one fetch (None when absent).

        Its :class:`SourceProfile` carries the interests, metrics and
        affiliation line; its publication list keeps the Scholar
        citation counts.
        """
        payload = self._get_or_none("/citations/profile", {"user": user})
        if payload is None:
            return None
        affiliations = ()
        if payload["affiliation"]:
            affiliations = (
                Affiliation(
                    institution=payload["affiliation"],
                    country=payload["country"],
                    start_year=0,
                    end_year=None,
                ),
            )
        publications = tuple(payload["publications"])
        profile = SourceProfile(
            source=self.source,
            source_author_id=payload["user"],
            name=payload["name"],
            affiliations=affiliations,
            interests=tuple(payload["interests"]),
            metrics=Metrics(
                citations=payload["citations"],
                h_index=payload["h_index"],
                i10_index=payload["i10_index"],
            ),
            publication_ids=tuple(p["id"] for p in publications),
        )
        return SourcePage(profile=profile, publications=publications)

    def scholars_by_interest(self, keyword: str, limit: int = 50) -> list[str]:
        """User ids of scholars registering ``keyword`` as an interest.

        This is the service call behind candidate-reviewer retrieval.
        """
        payload = self._get("/citations/interest", {"q": keyword, "limit": limit})
        return list(payload["users"])

"""Simulated Publons: the review-history service.

Publons (now Web of Science Reviewer Recognition) is the only service in
the paper's stack that documents *reviewing* activity: how many
manuscripts a scholar has reviewed, for which outlets, and how often on
time.  The reviewer summary carries those counts; MINARET reads no
individual review record, so the service keeps none.  Two of
the five ranking components (§2.3 — review experience and
familiarity-with-outlet) and one filter (§2.2 — "number of previous
review activities") depend on it.

Coverage is the weakest of the six sources (~55% by default): plenty of
excellent reviewers simply never registered, and the pipeline has to
rank them without this signal.
"""

from __future__ import annotations

from collections import Counter

from repro.scholarly.records import SourceName, SourceProfile
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

PUBLONS_HOST = "publons.com"


class PublonsService(SourceService):
    """Server side of the simulated Publons."""

    source = SourceName.PUBLONS
    host = PUBLONS_HOST

    def __init__(self, world: ScholarlyWorld, interest_noise: float | None = None):
        super().__init__()
        self._world = world
        noise = (
            interest_noise
            if interest_noise is not None
            else getattr(world.config, "interest_noise", 0.15)
        )
        self._reviewers = DocumentStore(name="publons-reviewers")
        self._reviewers.create_index("name", lambda d: d["normalized_name"])
        self._interest_index = InvertedIndex()
        self._rid_of: dict[str, str] = {}
        self._build(noise)
        self.route("/api/search", self._search)
        self.route("/api/reviewer", self._reviewer)

    def reviewer_id_of(self, author_id: str) -> str | None:
        """The Publons reviewer id for a world author, if covered."""
        return self._rid_of.get(author_id)

    def _build(self, noise: float) -> None:
        for author_id in sorted(self._world.authors):
            author = self._world.authors[author_id]
            if self.source not in author.covered_by:
                continue
            reviewer_id = stable_source_id(self.source, author_id, prefix="P-")
            self._rid_of[author_id] = reviewer_id
            reviews = self._world.author_reviews(author_id)
            per_venue = Counter(r.venue_id for r in reviews)
            venues_reviewed = [
                {
                    "venue_id": venue_id,
                    "venue": self._world.venues[venue_id].name,
                    "count": count,
                }
                for venue_id, count in sorted(per_venue.items())
            ]
            interests = noisy_interests(self._world, author, self.source, noise)
            self._reviewers.insert(
                {
                    "reviewer_id": reviewer_id,
                    "name": author.name,
                    "normalized_name": canonical_person_name(author.name),
                    "review_count": len(reviews),
                    "on_time_rate": (
                        round(sum(r.on_time for r in reviews) / len(reviews), 4)
                        if reviews
                        else None
                    ),
                    "venues_reviewed": venues_reviewed,
                    "interests": list(interests),
                },
                doc_id=reviewer_id,
            )
            interest_weights = {
                normalize_keyword(keyword): 1.0 for keyword in interests
            }
            if interest_weights:
                self._interest_index.add(reviewer_id, interest_weights)
        self.route("/api/interest", self._interest_search)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _search(self, request: HttpRequest) -> object:
        query = str(request.param("q", ""))
        normalized = canonical_person_name(query)
        hits = [
            {
                "reviewer_id": doc.payload["reviewer_id"],
                "name": doc.payload["name"],
                "review_count": doc.payload["review_count"],
            }
            for doc in self._reviewers.lookup("name", normalized)
        ]
        hits.sort(key=lambda h: h["reviewer_id"])
        return {"query": query, "hits": hits}

    def _reviewer(self, request: HttpRequest) -> object:
        reviewer_id = str(request.param("id", ""))
        doc = self._reviewers.get_or_none(reviewer_id)
        if doc is None:
            raise NotFoundError(request, f"no publons reviewer {reviewer_id!r}")
        return doc.payload

    def _interest_search(self, request: HttpRequest) -> object:
        keyword = normalize_keyword(str(request.param("q", "")))
        limit = int(request.param("limit", 50))
        postings = self._interest_index.search([keyword], limit=limit, use_idf=False)
        return {"keyword": keyword, "reviewers": [p.doc_id for p in postings]}


class PublonsClient(SourceClient):
    """Scraper side of Publons."""

    source = SourceName.PUBLONS

    def __init__(self, crawler: Crawler, host: str = PUBLONS_HOST):
        super().__init__(crawler, host)

    def search_reviewer(self, name: str) -> list[dict]:
        """Reviewer hits for a name."""
        payload = self._get("/api/search", {"q": name})
        return list(payload["hits"])

    def reviewer_summary(self, reviewer_id: str) -> dict | None:
        """Summary: review_count, on_time_rate, venues_reviewed, interests."""
        return self._get_or_none("/api/reviewer", {"id": reviewer_id})

    def reviewer_profile(self, reviewer_id: str) -> SourceProfile | None:
        """Summary repackaged as a :class:`SourceProfile`."""
        payload = self.reviewer_summary(reviewer_id)
        if payload is None:
            return None
        return SourceProfile(
            source=self.source,
            source_author_id=payload["reviewer_id"],
            name=payload["name"],
            interests=tuple(payload["interests"]),
            review_ids=(),  # raw ids are not exposed; counts live in summary
        )

    def reviewers_by_interest(self, keyword: str, limit: int = 50) -> list[str]:
        """Reviewer ids registering ``keyword`` as an interest."""
        payload = self._get("/api/interest", {"q": keyword, "limit": limit})
        return list(payload["reviewers"])

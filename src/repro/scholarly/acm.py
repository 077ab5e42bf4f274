"""Simulated ACM Digital Library.

The ACM DL indexes a *subset* of the literature (roughly, the ACM-ish
venues) with its own citation counts, which run lower than Google
Scholar's because they only count within the indexed corpus.  For the
pipeline it mainly serves as corroborating evidence during identity
verification and as a secondary publication source.
"""

from __future__ import annotations

import random

from repro.scholarly.records import (
    Affiliation,
    Metrics,
    SourceName,
    SourceProfile,
    compute_h_index,
    compute_i10_index,
)
from repro.scholarly.source import SourceClient, SourceService, stable_source_id
from repro.storage.documents import DocumentStore
from repro.text.normalize import canonical_person_name
from repro.web.crawler import Crawler
from repro.web.http import HttpRequest, NotFoundError
from repro.world.model import ScholarlyWorld

ACM_HOST = "dl.acm.org"

#: ACM's citation counts relative to ground truth (intra-corpus only).
_CITATION_DEFLATION = 0.8
#: Fraction of each author's publications the ACM DL indexes.
_INDEX_COVERAGE = 0.7


class AcmService(SourceService):
    """Server side of the simulated ACM DL."""

    source = SourceName.ACM_DL
    host = ACM_HOST

    def __init__(self, world: ScholarlyWorld):
        super().__init__()
        self._world = world
        self._profiles = DocumentStore(name="acm-profiles")
        self._profiles.create_index("name", lambda d: d["normalized_name"])
        self._build()
        self.route("/profile/search", self._search)
        self.route("/profile", self._profile)

    def _build(self) -> None:
        for author_id in sorted(self._world.authors):
            author = self._world.authors[author_id]
            if self.source not in author.covered_by:
                continue
            profile_id = stable_source_id(self.source, author_id, prefix="acm")
            rng = random.Random(f"acm:{author_id}:index")
            publications = []
            counts = []
            for pub_id in self._world.publications_by_author.get(author_id, []):
                if rng.random() >= _INDEX_COVERAGE:
                    continue
                pub = self._world.publications[pub_id]
                citations = int(pub.citation_count * _CITATION_DEFLATION)
                counts.append(citations)
                publications.append(
                    {
                        "id": pub.pub_id,
                        "title": pub.title,
                        "year": pub.year,
                        "citations": citations,
                    }
                )
            latest = author.affiliations[-1] if author.affiliations else None
            self._profiles.insert(
                {
                    "profile_id": profile_id,
                    "name": author.name,
                    "normalized_name": canonical_person_name(author.name),
                    "affiliation": latest.institution if latest else "",
                    "citations": sum(counts),
                    "h_index": compute_h_index(counts),
                    "i10_index": compute_i10_index(counts),
                    "publications": publications,
                },
                doc_id=profile_id,
            )

    def _search(self, request: HttpRequest) -> object:
        query = str(request.param("q", ""))
        normalized = canonical_person_name(query)
        hits = [
            {
                "profile_id": doc.payload["profile_id"],
                "name": doc.payload["name"],
                "affiliation": doc.payload["affiliation"],
            }
            for doc in self._profiles.lookup("name", normalized)
        ]
        hits.sort(key=lambda h: h["profile_id"])
        return {"query": query, "hits": hits}

    def _profile(self, request: HttpRequest) -> object:
        profile_id = str(request.param("id", ""))
        doc = self._profiles.get_or_none(profile_id)
        if doc is None:
            raise NotFoundError(request, f"no acm profile {profile_id!r}")
        return doc.payload


class AcmClient(SourceClient):
    """Scraper side of the ACM DL."""

    source = SourceName.ACM_DL

    def __init__(self, crawler: Crawler, host: str = ACM_HOST):
        super().__init__(crawler, host)

    def search_author(self, name: str) -> list[dict]:
        """Profile hits for a name."""
        payload = self._get("/profile/search", {"q": name})
        return list(payload["hits"])

    def profile(self, profile_id: str) -> SourceProfile | None:
        """Full profile as a :class:`SourceProfile` (None when absent)."""
        payload = self._get_or_none("/profile", {"id": profile_id})
        if payload is None:
            return None
        affiliations = ()
        if payload["affiliation"]:
            affiliations = (
                Affiliation(
                    institution=payload["affiliation"],
                    country="",
                    start_year=0,
                    end_year=None,
                ),
            )
        return SourceProfile(
            source=self.source,
            source_author_id=payload["profile_id"],
            name=payload["name"],
            affiliations=affiliations,
            metrics=Metrics(
                citations=payload["citations"],
                h_index=payload["h_index"],
                i10_index=payload["i10_index"],
            ),
            publication_ids=tuple(p["id"] for p in payload["publications"]),
        )

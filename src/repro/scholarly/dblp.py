"""Simulated DBLP: the universal bibliography.

What real DBLP offers (and therefore what this service exposes):

- complete coverage of computer-science publications — every scholar in
  the world has a DBLP page;
- author pages keyed by *name*, with numeric homonym suffixes
  ("Lei Zhou 0001") when several scholars share a name — the paper's
  motivating disambiguation example;
- publication records: title, venue, year, author list.  **No** citation
  counts, interests or review data — those live on other services;
- the statistics page behind the paper's Figure 1 (new records per
  year by publication type).
"""

from __future__ import annotations

from collections import defaultdict

from repro.scholarly.records import Affiliation, SourceName, SourcePage, SourceProfile
from repro.scholarly.source import SourceClient, SourceService
from repro.storage.documents import DocumentStore
from repro.storage.inverted import InvertedIndex
from repro.storage.ordered import OrderedIndexManager
from repro.text.normalize import canonical_person_name
from repro.text.tokenize import tokenize
from repro.web.crawler import Crawler
from repro.web.http import HttpRequest, NotFoundError
from repro.world.model import ScholarlyWorld

DBLP_HOST = "dblp.org"


class DblpService(SourceService):
    """Server side of the simulated DBLP."""

    source = SourceName.DBLP
    host = DBLP_HOST

    def __init__(self, world: ScholarlyWorld):
        super().__init__()
        self._world = world
        self._authors = DocumentStore(name="dblp-authors")
        self._authors.create_index("name", lambda d: d["normalized_name"])
        self._publications = DocumentStore(name="dblp-publications")
        self._publication_indexes = OrderedIndexManager(self._publications)
        self._title_index = InvertedIndex()
        self._pid_of: dict[str, str] = {}
        self._build()
        self._publication_indexes.create_index("year", lambda d: d["year"])
        for document in self._publications.scan():
            tokens = tokenize(document.payload["title"])
            if tokens:
                weights = {t: 1.0 for t in tokens}
                self._title_index.add(document.doc_id, weights)
        self.route("/search/author", self._search_author)
        self.route("/search/publications", self._search_publications)
        self.route("/search/venue", self._search_venue)
        self.route("/search/title", self._search_title)
        self.route("/author", self._author_page)
        self.route("/publication", self._publication)
        self.route("/venue", self._venue_page)
        self.route("/statistics/records-per-year", self._statistics)

    def pid_of(self, author_id: str) -> str:
        """The DBLP pid minted for a world author (test/oracle helper)."""
        return self._pid_of[author_id]

    def _build(self) -> None:
        # Assign homonym suffixes: scholars sharing a canonical name get
        # "Name 0001", "Name 0002", ... in world-id order, like real DBLP.
        by_name: dict[str, list[str]] = defaultdict(list)
        for author_id in sorted(self._world.authors):
            author = self._world.authors[author_id]
            by_name[canonical_person_name(author.name)].append(author_id)
        for normalized, author_ids in by_name.items():
            ambiguous = len(author_ids) > 1
            for ordinal, author_id in enumerate(author_ids, start=1):
                author = self._world.authors[author_id]
                pid = f"{author.name} {ordinal:04d}" if ambiguous else author.name
                self._pid_of[author_id] = pid
                latest = author.affiliations[-1] if author.affiliations else None
                self._authors.insert(
                    {
                        "pid": pid,
                        "name": author.name,
                        "normalized_name": normalized,
                        "note": latest.institution if latest else "",
                        "publication_ids": list(
                            self._world.publications_by_author.get(author_id, [])
                        ),
                        "_world_id": author_id,
                    },
                    doc_id=pid,
                )
        for pub_id in sorted(self._world.publications):
            pub = self._world.publications[pub_id]
            venue = self._world.venues[pub.venue_id]
            self._publications.insert(
                {
                    "id": pub.pub_id,
                    "title": pub.title,
                    "year": pub.year,
                    "venue": venue.name,
                    "venue_type": venue.venue_type.value,
                },
                doc_id=pub_id,
            )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _search_author(self, request: HttpRequest) -> object:
        query = str(request.param("q", ""))
        normalized = canonical_person_name(query)
        hits = [
            {
                "pid": doc.payload["pid"],
                "name": doc.payload["name"],
                "note": doc.payload["note"],
            }
            for doc in self._authors.lookup("name", normalized)
        ]
        hits.sort(key=lambda h: h["pid"])
        return {"query": query, "hits": hits}

    def _author_page(self, request: HttpRequest) -> object:
        pid = str(request.param("pid", ""))
        doc = self._authors.get_or_none(pid)
        if doc is None:
            raise NotFoundError(request, f"no dblp author {pid!r}")
        publication_ids = doc.payload["publication_ids"]
        coauthor_pids: set[str] = set()
        for pub_id in publication_ids:
            pub = self._world.publications[pub_id]
            for other_id in pub.author_ids:
                coauthor_pids.add(self._pid_of[other_id])
        coauthor_pids.discard(pid)
        publications = []
        for pub_id in publication_ids:
            pub = self._world.publications[pub_id]
            venue = self._world.venues[pub.venue_id]
            publications.append(
                {
                    "id": pub.pub_id,
                    "title": pub.title,
                    "year": pub.year,
                    "venue_id": venue.venue_id,
                    "venue": venue.name,
                    "venue_type": venue.venue_type.value,
                }
            )
        return {
            "pid": pid,
            "name": doc.payload["name"],
            "note": doc.payload["note"],
            "publication_ids": list(publication_ids),
            "publications": publications,
            "coauthor_pids": sorted(coauthor_pids),
        }

    def _publication(self, request: HttpRequest) -> object:
        pub_id = str(request.param("id", ""))
        pub = self._world.publications.get(pub_id)
        if pub is None:
            raise NotFoundError(request, f"no dblp publication {pub_id!r}")
        venue = self._world.venues[pub.venue_id]
        return {
            "id": pub.pub_id,
            "title": pub.title,
            "year": pub.year,
            "venue_id": venue.venue_id,
            "venue": venue.name,
            "venue_type": venue.venue_type.value,
            "authors": [
                {"pid": self._pid_of[a], "name": self._world.authors[a].name}
                for a in pub.author_ids
            ],
        }

    def _search_publications(self, request: HttpRequest) -> object:
        year_from = request.param("year_from")
        year_to = request.param("year_to")
        venue_type = request.param("venue_type")
        limit = int(request.param("limit", 100))
        pub_ids = self._publication_indexes.range_lookup(
            "year",
            int(year_from) if year_from is not None else None,
            int(year_to) if year_to is not None else None,
        )
        hits = []
        for pub_id in pub_ids:
            payload = self._publications.get(pub_id).payload
            if venue_type is not None and payload["venue_type"] != venue_type:
                continue
            hits.append(payload)
            if len(hits) >= limit:
                break
        return {"hits": hits, "total_matched": len(pub_ids)}

    def _search_title(self, request: HttpRequest) -> object:
        """Ranked full-text search over publication titles."""
        query = str(request.param("q", ""))
        limit = int(request.param("limit", 25))
        tokens = tokenize(query)
        if not tokens:
            return {"query": query, "hits": []}
        postings = self._title_index.search(tokens, limit=limit)
        hits = []
        for posting in postings:
            payload = self._publications.get(posting.doc_id).payload
            hits.append({**payload, "relevance": round(posting.weight, 4)})
        return {"query": query, "hits": hits}

    def _search_venue(self, request: HttpRequest) -> object:
        """Venue search by (partial) name — the Fig. 2 'Crawl Journal/
        Conf. Data' entry point."""
        from repro.text.normalize import normalize_keyword

        query = normalize_keyword(str(request.param("q", "")))
        hits = []
        if query:
            for venue in self._world.venues.values():
                normalized = normalize_keyword(venue.name)
                if query == normalized or query in normalized:
                    hits.append(
                        {
                            "venue_id": venue.venue_id,
                            "name": venue.name,
                            "venue_type": venue.venue_type.value,
                        }
                    )
        hits.sort(key=lambda h: h["venue_id"])
        return {"query": query, "hits": hits}

    def _venue_page(self, request: HttpRequest) -> object:
        venue_id = str(request.param("id", ""))
        venue = self._world.venues.get(venue_id)
        if venue is None:
            raise NotFoundError(request, f"no dblp venue {venue_id!r}")
        recent = []
        for pub in self._world.publications.values():
            if pub.venue_id == venue_id:
                recent.append((pub.year, pub.pub_id, pub.title))
        recent.sort(reverse=True)
        topic_labels = [
            self._world.ontology.topic(t).label
            for t in venue.topic_ids
            if t in self._world.ontology
        ]
        return {
            "venue_id": venue.venue_id,
            "name": venue.name,
            "venue_type": venue.venue_type.value,
            "topics": topic_labels,
            "publication_count": len(recent),
            "recent_publications": [
                {"id": pub_id, "title": title, "year": year}
                for year, pub_id, title in recent[:25]
            ],
        }

    def _statistics(self, request: HttpRequest) -> object:
        return {"records_per_year": self._world.dblp_records_per_year()}


class DblpClient(SourceClient):
    """Scraper side of DBLP.

    One method per page: :meth:`author_page` returns the profile, the
    publication list and the co-author pids of an ``/author`` page from
    a single request, so no caller fetches the page again for another
    field.
    """

    source = SourceName.DBLP

    def __init__(self, crawler: Crawler, host: str = DBLP_HOST):
        super().__init__(crawler, host)

    def search_author(self, name: str) -> list[dict]:
        """Author hits for a name: ``[{pid, name, note}, ...]``."""
        payload = self._get("/search/author", {"q": name})
        return list(payload["hits"])

    def author_page(self, pid: str) -> SourcePage | None:
        """An author page, from one fetch (None when the pid is unknown).

        Its :class:`SourceProfile` carries no interests or metrics:
        DBLP's affiliation knowledge is the single free-text "note",
        mapped here to one open-ended affiliation when present.  The
        page also carries the dated publication list (title, year,
        venue) and the pids of everyone who shares a publication with
        ``pid``.
        """
        payload = self._get_or_none("/author", {"pid": pid})
        if payload is None:
            return None
        affiliations = ()
        if payload["note"]:
            affiliations = (
                Affiliation(
                    institution=payload["note"],
                    country="",
                    start_year=0,
                    end_year=None,
                ),
            )
        profile = SourceProfile(
            source=self.source,
            source_author_id=payload["pid"],
            name=payload["name"],
            affiliations=affiliations,
            publication_ids=tuple(payload["publication_ids"]),
        )
        return SourcePage(
            profile=profile,
            publications=tuple(payload["publications"]),
            coauthor_pids=tuple(payload["coauthor_pids"]),
        )

    def publication(self, pub_id: str) -> dict | None:
        """One publication record, or ``None`` if unknown."""
        return self._get_or_none("/publication", {"id": pub_id})

    def publications_by_year(
        self,
        year_from: int | None = None,
        year_to: int | None = None,
        venue_type: str | None = None,
        limit: int = 100,
    ) -> list[dict]:
        """Publications in a year range, optionally by venue type."""
        params: dict[str, object] = {"limit": limit}
        if year_from is not None:
            params["year_from"] = year_from
        if year_to is not None:
            params["year_to"] = year_to
        if venue_type is not None:
            params["venue_type"] = venue_type
        payload = self._get("/search/publications", params)
        return list(payload["hits"])

    def search_title(self, query: str, limit: int = 25) -> list[dict]:
        """Ranked publication hits for a title query."""
        payload = self._get("/search/title", {"q": query, "limit": limit})
        return list(payload["hits"])

    def search_venue(self, name: str) -> list[dict]:
        """Venue hits for a (partial) name."""
        payload = self._get("/search/venue", {"q": name})
        return list(payload["hits"])

    def venue_page(self, venue_id: str) -> dict | None:
        """A venue's page: topics, volume, recent publications."""
        return self._get_or_none("/venue", {"id": venue_id})

    def records_per_year(self) -> dict:
        """The Figure 1 statistics table."""
        payload = self._get("/statistics/records-per-year")
        return dict(payload["records_per_year"])

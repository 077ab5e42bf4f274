"""Simulated DBLP: the universal bibliography.

What real DBLP offers (and therefore what this service exposes):

- complete coverage of computer-science publications — every scholar in
  the world has a DBLP page;
- author pages keyed by *name*, with numeric homonym suffixes
  ("Lei Zhou 0001") when several scholars share a name — the paper's
  motivating disambiguation example;
- each author page lists the author's publications (title, year,
  venue) and co-authors.  **No** citation counts, interests or review
  data — those live on other services;
- venue search, which resolves the editor's target outlet;
- the statistics page behind the paper's Figure 1 (new records per
  year by publication type).

Only what MINARET and the Figure 1 table request is served:
``/search/author``, ``/author``, ``/search/venue`` and
``/statistics/records-per-year``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.scholarly.records import Affiliation, SourceName, SourcePage, SourceProfile
from repro.scholarly.source import SourceClient, SourceService
from repro.storage.documents import DocumentStore
from repro.text.normalize import canonical_person_name
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
        self._pid_of: dict[str, str] = {}
        self._build()
        self.route("/search/author", self._search_author)
        self.route("/search/venue", self._search_venue)
        self.route("/author", self._author_page)
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
                    },
                    doc_id=pid,
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

    def search_venue(self, name: str) -> list[dict]:
        """Venue hits for a (partial) name."""
        payload = self._get("/search/venue", {"q": name})
        return list(payload["hits"])

    def records_per_year(self) -> dict:
        """The Figure 1 statistics table."""
        payload = self._get("/statistics/records-per-year")
        return dict(payload["records_per_year"])

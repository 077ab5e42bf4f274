"""Simulated ORCID: the authoritative identity and affiliation registry.

ORCID's value to MINARET is twofold: its ids are the closest thing the
scholarly web has to a primary key (identity verification anchors on
them when present), and its employment records are the only *dated*
affiliation history — which is precisely what the shared-affiliation COI
rule needs (overlapping periods, not just string equality of the
current affiliation line).
"""

from __future__ import annotations

from repro.scholarly.records import Affiliation, SourceName, SourceProfile
from repro.scholarly.source import SourceClient, SourceService, stable_source_id
from repro.storage.documents import DocumentStore
from repro.text.normalize import canonical_person_name
from repro.web.crawler import Crawler
from repro.web.http import HttpRequest, NotFoundError
from repro.world.model import ScholarlyWorld

ORCID_HOST = "orcid.org"


def _format_orcid(raw_hex: str) -> str:
    """Render a hash as an ORCID iD (0000-XXXX-XXXX-XXXX)."""
    digits = "".join(str(int(c, 16) % 10) for c in raw_hex[:12])
    return f"0000-{digits[0:4]}-{digits[4:8]}-{digits[8:12]}"


class OrcidService(SourceService):
    """Server side of the simulated ORCID registry."""

    source = SourceName.ORCID
    host = ORCID_HOST

    def __init__(self, world: ScholarlyWorld):
        super().__init__()
        self._world = world
        self._records = DocumentStore(name="orcid-records")
        self._records.create_index("name", lambda d: d["normalized_name"])
        self._build()
        self.route("/search", self._search)
        self.route("/record", self._record)

    def _build(self) -> None:
        for author_id in sorted(self._world.authors):
            author = self._world.authors[author_id]
            if self.source not in author.covered_by:
                continue
            raw = stable_source_id(self.source, author_id)
            orcid = _format_orcid(raw)
            employments = [
                {
                    "institution": a.institution,
                    "country": a.country,
                    "start_year": a.start_year,
                    "end_year": a.end_year,
                }
                for a in author.affiliations
            ]
            self._records.insert(
                {
                    "orcid": orcid,
                    "name": author.name,
                    "normalized_name": canonical_person_name(author.name),
                    "employments": employments,
                    "work_ids": list(
                        self._world.publications_by_author.get(author_id, [])
                    ),
                },
                doc_id=orcid,
            )

    def _search(self, request: HttpRequest) -> object:
        query = str(request.param("q", ""))
        normalized = canonical_person_name(query)
        hits = [
            {
                "orcid": doc.payload["orcid"],
                "name": doc.payload["name"],
                "institution": (
                    doc.payload["employments"][-1]["institution"]
                    if doc.payload["employments"]
                    else ""
                ),
            }
            for doc in self._records.lookup("name", normalized)
        ]
        hits.sort(key=lambda h: h["orcid"])
        return {"query": query, "hits": hits}

    def _record(self, request: HttpRequest) -> object:
        orcid = str(request.param("id", ""))
        doc = self._records.get_or_none(orcid)
        if doc is None:
            raise NotFoundError(request, f"no orcid record {orcid!r}")
        return doc.payload


class OrcidClient(SourceClient):
    """Scraper side of ORCID."""

    source = SourceName.ORCID

    def __init__(self, crawler: Crawler, host: str = ORCID_HOST):
        super().__init__(crawler, host)

    def search(self, name: str) -> list[dict]:
        """Record hits for a name."""
        payload = self._get("/search", {"q": name})
        return list(payload["hits"])

    def record(self, orcid: str) -> SourceProfile | None:
        """Full record as a :class:`SourceProfile` with dated affiliations."""
        payload = self._get_or_none("/record", {"id": orcid})
        if payload is None:
            return None
        affiliations = tuple(
            Affiliation(
                institution=e["institution"],
                country=e["country"],
                start_year=e["start_year"],
                end_year=e["end_year"],
            )
            for e in payload["employments"]
        )
        return SourceProfile(
            source=self.source,
            source_author_id=payload["orcid"],
            name=payload["name"],
            affiliations=affiliations,
            publication_ids=tuple(payload["work_ids"]),
        )

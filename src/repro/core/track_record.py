"""Author track-record extraction (paper §2.1, second step).

"This step focuses on extracting information about the publications
list and affiliation history of the author list ... particularly
important to allow discovering any potential for conflict of interest."

A :class:`AuthorTrackRecord` is the consolidated dossier the editor
sees per verified author: publication counts over time, venues, the
co-author network (the COI-relevant part), affiliation timeline and
reviewing history.  It is assembled from the merged profile plus one
fetch of the DBLP author page.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.models import VerifiedAuthor
from repro.scholarly.records import Affiliation, Metrics, SourceName


@dataclass(frozen=True)
class AuthorTrackRecord:
    """The consolidated dossier of one verified author."""

    canonical_name: str
    total_publications: int
    publications_per_year: dict[int, int]
    first_active_year: int | None
    last_active_year: int | None
    venues: dict[str, int]
    coauthor_pids: tuple[str, ...]
    affiliations: tuple[Affiliation, ...]
    metrics: Metrics
    review_count: int

    def active_span_years(self) -> int:
        """Length of the publication career, in years (0 when empty)."""
        if self.first_active_year is None or self.last_active_year is None:
            return 0
        return self.last_active_year - self.first_active_year + 1

    def publications_since(self, year: int) -> int:
        """Publications in ``year`` or later."""
        return sum(
            count for y, count in self.publications_per_year.items() if y >= year
        )

    def top_venues(self, k: int = 3) -> list[tuple[str, int]]:
        """The ``k`` most frequent publication venues."""
        return Counter(self.venues).most_common(k)


def build_track_record(
    verified: VerifiedAuthor, sources, plane=None
) -> AuthorTrackRecord:
    """Assemble the dossier for a verified author.

    ``sources`` is the usual six-client bundle.  The DBLP author page,
    fetched once, supplies both the dated publication list and the
    co-author network; the merged profile supplies affiliations and
    metrics; Publons (when linked) supplies the review count.
    ``plane`` optionally routes the fetches through a warm-path
    :class:`~repro.retrieval.RetrievalPlane` — the ``publons_summary``
    layer is shared with candidate extraction, so a dossier can be
    served from a profile an earlier recommendation already paid for.
    """
    profile = verified.profile
    dblp_pid = profile.source_id(SourceName.DBLP)
    publications: tuple[dict, ...] = ()
    coauthor_pids: tuple[str, ...] = ()
    if dblp_pid is not None:

        def load_record() -> tuple[tuple[dict, ...], tuple[str, ...]]:
            page = sources.dblp.author_page(dblp_pid)
            return ((), ()) if page is None else (page.publications, page.coauthor_pids)

        if plane is None:
            publications, coauthor_pids = load_record()
        else:
            publications, coauthor_pids = plane.fetch(
                "dblp_author_record", dblp_pid, load_record
            )
    per_year: Counter[int] = Counter(p["year"] for p in publications)
    venues: Counter[str] = Counter(p["venue"] for p in publications)
    review_count = 0
    publons_id = profile.source_id(SourceName.PUBLONS)
    if publons_id is not None:
        if plane is None:
            summary = sources.publons.reviewer_summary(publons_id)
        else:
            summary = plane.fetch(
                "publons_summary",
                publons_id,
                lambda: sources.publons.reviewer_summary(publons_id),
            )
        if summary is not None:
            review_count = int(summary.get("review_count", 0))
    years = sorted(per_year)
    return AuthorTrackRecord(
        canonical_name=profile.canonical_name,
        total_publications=len(publications),
        publications_per_year=dict(sorted(per_year.items())),
        first_active_year=years[0] if years else None,
        last_active_year=years[-1] if years else None,
        venues=dict(venues),
        coauthor_pids=coauthor_pids,
        affiliations=profile.affiliations,
        metrics=profile.metrics,
        review_count=review_count,
    )

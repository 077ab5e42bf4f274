"""Author identity verification and cross-source profile linking (§2.1).

Names are the only join key the scholarly web offers, and they collide.
Verification proceeds the way the paper's demo does (Fig. 4):

1. search the sources for each submitted author name;
2. when several profiles match, *resolve* the ambiguity — automatically
   when evidence (the submitted affiliation, publication overlap)
   suffices, otherwise by asking the user (a resolver callback), and
   failing loudly when neither is possible;
3. link the chosen anchor profile to the other five sources, using
   publication-set overlap as the linking evidence wherever a source
   exposes publication ids (names alone would mislink the very homonyms
   this step exists to separate);
4. merge everything into one :class:`~repro.scholarly.records.MergedProfile`.

With a :class:`~repro.retrieval.RetrievalPlane` attached (warm mode),
each author is verified once per epoch: the verification is stored in
the plane's ``author_identity`` layer unless a resolver had to choose
among several DBLP hits or a secondary source stayed down through every
retry.  Those two are verified again on every run.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.errors import (
    AmbiguousIdentityError,
    IdentityVerificationError,
    SourceUnavailableError,
)
from repro.core.models import IdentityMatch, ManuscriptAuthor, VerifiedAuthor
from repro.scholarly.merge import merge_source_profiles
from repro.scholarly.records import SourceName, SourcePage, SourceProfile
from repro.text.metrics import jaccard_similarity
from repro.text.strings import name_similarity
from repro.text.tokenize import tokenize
from repro.web.crawler import CrawlError

#: How many same-name hits per source the linker will fetch and compare.
_MAX_HITS_TO_COMPARE = 5


class IdentityResolver:
    """Strategy deciding among multiple matching profiles.

    The base class is the *strict* resolver: it refuses to guess, which
    makes the pipeline raise :class:`AmbiguousIdentityError` — the
    equivalent of the paper's mandatory manual identification step.
    """

    def resolve(
        self, author: ManuscriptAuthor, matches: list[IdentityMatch]
    ) -> IdentityMatch | None:
        """Pick one match or return ``None`` to signal "cannot decide"."""
        return None


class AffiliationEvidenceResolver(IdentityResolver):
    """Auto-resolve using the submitted affiliation as evidence.

    Picks the match whose profile evidence (the affiliation note the
    source shows next to the name) best token-overlaps the affiliation
    the editor typed into the submission form.  Declines to decide when
    no match shows any affiliation agreement — then the strict behaviour
    kicks in upstream.
    """

    def __init__(self, min_overlap: float = 0.3):
        if not 0.0 <= min_overlap <= 1.0:
            raise ValueError(f"min_overlap must be in [0, 1], got {min_overlap}")
        self._min_overlap = min_overlap

    def resolve(
        self, author: ManuscriptAuthor, matches: list[IdentityMatch]
    ) -> IdentityMatch | None:
        if not author.affiliation:
            return None
        target_tokens = set(tokenize(author.affiliation))
        best: tuple[float, IdentityMatch] | None = None
        for match in matches:
            overlap = jaccard_similarity(
                target_tokens, set(tokenize(match.evidence))
            )
            if overlap >= self._min_overlap:
                if best is None or overlap > best[0]:
                    best = (overlap, match)
        return best[1] if best else None


class CallbackResolver(IdentityResolver):
    """Delegate the decision to a callable — the "user" of the demo.

    The callback receives the author and the matches and returns the
    chosen match (or ``None`` to refuse).  It is how a caller puts the
    editor's manual pick behind the ``resolver=`` hook; tests wire
    oracles.
    """

    def __init__(
        self,
        callback: Callable[[ManuscriptAuthor, list[IdentityMatch]], IdentityMatch | None],
    ):
        self._callback = callback

    def resolve(
        self, author: ManuscriptAuthor, matches: list[IdentityMatch]
    ) -> IdentityMatch | None:
        return self._callback(author, matches)


class FirstMatchResolver(IdentityResolver):
    """Always pick the first (deterministic) match.

    A deliberately naive baseline for the identity experiments: it is
    exactly what a pipeline *without* a verification step would do.
    """

    def resolve(
        self, author: ManuscriptAuthor, matches: list[IdentityMatch]
    ) -> IdentityMatch | None:
        return matches[0] if matches else None


class ChainResolver(IdentityResolver):
    """Try resolvers in order until one decides."""

    def __init__(self, resolvers: list[IdentityResolver]):
        self._resolvers = list(resolvers)

    def resolve(
        self, author: ManuscriptAuthor, matches: list[IdentityMatch]
    ) -> IdentityMatch | None:
        for resolver in self._resolvers:
            choice = resolver.resolve(author, matches)
            if choice is not None:
                return choice
        return None


class ProfileLinker:
    """Links one scholar's profiles across the six sources.

    ``sources`` is any object exposing the six typed clients as
    attributes ``dblp``, ``scholar``, ``publons``, ``acm``, ``orcid``,
    ``rid`` — :class:`~repro.scholarly.registry.ScholarlyHub` does.
    """

    def __init__(self, sources, use_all_sources: bool = False):
        self._sources = sources
        self._use_all_sources = use_all_sources

    def link_from_dblp(
        self, dblp_profile: SourceProfile
    ) -> tuple[list[SourceProfile], int]:
        """Collect every source's profile for the scholar anchored at DBLP.

        Publication overlap with the DBLP record is the primary linking
        evidence; sources that expose no publications (Publons) fall
        back to name identity, accepting that homonyms can mislink there
        — as they genuinely can in the real system.

        Returns the profiles and how many source links this call lost
        because their source stayed down through every retry.
        """
        profiles: list[SourceProfile] = [dblp_profile]
        known_pubs = set(dblp_profile.publication_ids)
        name = dblp_profile.name
        links = [
            lambda: self._link_scholar(name, known_pubs),
            lambda: self._link_orcid(name, known_pubs),
            lambda: self._link_publons(name),
        ]
        if self._use_all_sources:
            links.append(lambda: self._link_acm(name, known_pubs))
            links.append(lambda: self._link_rid(name, known_pubs))
        lost = 0
        for link in links:
            # A secondary source staying down through every retry costs
            # its fields (metrics, affiliations, reviews) — the merged
            # profile is poorer, the verification still stands.
            try:
                profile = link()
            except CrawlError:
                lost += 1
                continue
            if profile is not None:
                profiles.append(profile)
        return profiles, lost

    # ------------------------------------------------------------------
    # Per-source linking
    # ------------------------------------------------------------------

    def _link_scholar(self, name: str, known_pubs: set[str]) -> SourceProfile | None:
        hits = self._sources.scholar.search_author(name)
        return self._best_by_pub_overlap(
            hits[:_MAX_HITS_TO_COMPARE],
            known_pubs,
            fetch=lambda hit: _page_profile(self._sources.scholar.profile_page(hit["user"])),
        )

    def _link_orcid(self, name: str, known_pubs: set[str]) -> SourceProfile | None:
        hits = self._sources.orcid.search(name)
        return self._best_by_pub_overlap(
            hits[:_MAX_HITS_TO_COMPARE],
            known_pubs,
            fetch=lambda hit: self._sources.orcid.record(hit["orcid"]),
        )

    def _link_acm(self, name: str, known_pubs: set[str]) -> SourceProfile | None:
        hits = self._sources.acm.search_author(name)
        return self._best_by_pub_overlap(
            hits[:_MAX_HITS_TO_COMPARE],
            known_pubs,
            fetch=lambda hit: self._sources.acm.profile(hit["profile_id"]),
        )

    def _link_rid(self, name: str, known_pubs: set[str]) -> SourceProfile | None:
        hits = self._sources.rid.search(name)
        return self._best_by_pub_overlap(
            hits[:_MAX_HITS_TO_COMPARE],
            known_pubs,
            fetch=lambda hit: self._sources.rid.profile(hit["rid"]),
        )

    def _link_publons(self, name: str) -> SourceProfile | None:
        hits = self._sources.publons.search_reviewer(name)
        if not hits:
            return None
        # Publons exposes no publication ids; link by name only and take
        # the first hit deterministically.
        return self._sources.publons.reviewer_profile(hits[0]["reviewer_id"])

    @staticmethod
    def _best_by_pub_overlap(hits, known_pubs: set[str], fetch) -> SourceProfile | None:
        """Fetch each hit's profile and keep the best publication overlap.

        With no overlap anywhere (e.g. the anchor has no publications
        yet), a single hit is accepted on name evidence; multiple hits
        without overlap are rejected as unresolvable.
        """
        best: tuple[int, SourceProfile] | None = None
        fetched: list[SourceProfile] = []
        for hit in hits:
            profile = fetch(hit)
            if profile is None:
                continue
            fetched.append(profile)
            overlap = len(known_pubs & set(profile.publication_ids))
            if overlap > 0 and (best is None or overlap > best[0]):
                best = (overlap, profile)
        if best is not None:
            return best[1]
        if len(fetched) == 1 and not known_pubs:
            return fetched[0]
        return None


def _page_profile(page: SourcePage | None) -> SourceProfile | None:
    """The profile of a fetched page, ``None`` when there is no page."""
    return None if page is None else page.profile


class IdentityVerifier:
    """Verifies manuscript-author identities (the Fig. 4 step).

    ``plane`` attaches a shared warm-path
    :class:`~repro.retrieval.RetrievalPlane`; ``None`` (the default)
    verifies every author live, the paper's on-the-fly mode.
    """

    def __init__(
        self,
        sources,
        resolver: IdentityResolver | None = None,
        use_all_sources: bool = False,
        plane=None,
    ):
        self._sources = sources
        self._resolver = resolver or ChainResolver(
            [AffiliationEvidenceResolver()]
        )
        self._use_all_sources = use_all_sources
        self._linker = ProfileLinker(sources, use_all_sources=use_all_sources)
        self._plane = plane

    def verify(self, author: ManuscriptAuthor) -> VerifiedAuthor:
        """Verify one author; raises on not-found or unresolved ambiguity.

        DBLP is the anchor: its search and author-page legs have no
        fallback, so when one of them exhausts its retries the run
        fails with a typed :class:`SourceUnavailableError` rather than
        a transport-level exception — batch callers report that per
        paper instead of crashing the whole program.  The chosen
        author page is fetched once and supplies both the anchor
        profile and the dated publication list.

        With a plane attached, a settled verification is served from
        its ``author_identity`` layer for the rest of the epoch.  The
        result is then shared across requests and must not be mutated.
        """
        if self._plane is None:
            return self._verify(author)[0]
        verified, __ = self._plane.fetch(
            "author_identity",
            (author, self._use_all_sources),
            lambda: self._verify(author),
            keep=_settled,
        )
        return verified

    def _verify(self, author: ManuscriptAuthor) -> tuple[VerifiedAuthor, bool]:
        """The live verification, and whether it is settled.

        A settled verification depends only on what the sources serve
        this epoch: no resolver chose among DBLP hits, and no secondary
        source link was lost.
        """
        try:
            hits = self._sources.dblp.search_author(author.name)
        except CrawlError as exc:
            raise SourceUnavailableError(exc.host, str(exc)) from exc
        if not hits:
            raise IdentityVerificationError(author.name)
        matches = [
            IdentityMatch(
                source=SourceName.DBLP,
                source_author_id=hit["pid"],
                name=hit["name"],
                evidence=hit.get("note", ""),
                confidence=round(name_similarity(author.name, hit["name"]), 4),
            )
            for hit in hits
        ]
        ambiguous = len(matches) > 1
        if ambiguous:
            chosen = self._resolver.resolve(author, matches)
            if chosen is None:
                raise AmbiguousIdentityError(author.name, len(matches))
        else:
            chosen = matches[0]
        try:
            dblp_page = self._sources.dblp.author_page(chosen.source_author_id)
        except CrawlError as exc:
            raise SourceUnavailableError(exc.host, str(exc)) from exc
        if dblp_page is None:
            raise IdentityVerificationError(author.name)
        profiles, lost = self._linker.link_from_dblp(dblp_page.profile)
        verified = VerifiedAuthor(
            submitted=author,
            profile=merge_source_profiles(profiles),
            ambiguous=ambiguous,
            candidates_considered=tuple(matches),
            dblp_publications=dblp_page.publications,
        )
        return verified, not ambiguous and not lost

    def verify_all(self, authors: tuple[ManuscriptAuthor, ...]) -> list[VerifiedAuthor]:
        """Verify every author of a manuscript, in order."""
        return [self.verify(author) for author in authors]


def _settled(outcome: tuple[VerifiedAuthor, bool]) -> bool:
    return outcome[1]

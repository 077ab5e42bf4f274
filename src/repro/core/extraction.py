"""Information extraction phase (§2.1): candidates and their profiles.

Candidate retrieval follows the paper exactly: the manuscript keywords
are semantically expanded, then each expanded keyword is used to query
the services that index research interests (Google Scholar and Publons)
for scholars registering it.  Every retrieved scholar accumulates the
expansion scores ``sc`` of the keywords that matched them; the best
``max_candidates`` by aggregate match are kept and their full profiles
are assembled across the remaining sources.

All of this happens through the simulated HTTP layer — profile assembly
is where the bulk of the pipeline's on-the-fly request volume goes,
which is what :class:`~repro.core.config.PipelineConfig.max_candidates`
exists to bound.

Both hot loops work in waves through an
:class:`~repro.concurrency.Executor`: interest queries are independent
per expanded keyword, and profile assemblies are independent per
candidate.  Parallel runs produce the same candidate list as sequential
runs because the fan-out only *computes* outcomes — selection (ranking,
budget, name de-duplication) is always replayed afterwards in ranked
order, and the simulated web's latency/fault draws are keyed by request
content rather than arrival order.

When a :class:`~repro.retrieval.RetrievalPlane` is attached, the
expensive fetch sequences — interest queries, whole profile assemblies,
Publons summaries — resolve through its warm path: cached across
requests, coalesced when issued concurrently, epoch-invalidated when
the world re-indexes.  Each wave first reads its warm hits from the
plane in one batched lookup and stamps their outcomes inline; only the
misses fan out as executor tasks, and a wave with no misses dispatches
nothing.  Without a plane every wave maps in full.  The selection
replay is unchanged, so warm runs rank bit-identically to cold ones.
"""

from __future__ import annotations

import threading

from repro.concurrency import Executor, create_executor
from repro.core.config import PipelineConfig
from repro.core.models import Candidate
from repro.ontology.expansion import ExpandedKeyword
from repro.scholarly.merge import merge_source_profiles
from repro.scholarly.records import SourceProfile
from repro.text.normalize import canonical_person_name, normalize_keyword
from repro.web.crawler import CrawlError

#: Task outcome marking "a source stayed down through every retry".
_FAILED = object()
#: Queue marker for a Publons summary that has not been fetched yet.
_UNFETCHED = object()


class CandidateExtractor:
    """Retrieves candidate reviewers and assembles their profiles.

    ``sources`` is any object exposing the six typed clients as
    attributes (``ScholarlyHub`` qualifies).  ``executor`` overrides the
    worker pool; by default one is built from ``config.workers``.
    ``plane`` attaches a shared warm-path
    :class:`~repro.retrieval.RetrievalPlane`; ``None`` (the default) is
    the paper's pure on-the-fly mode.
    """

    def __init__(
        self,
        sources,
        config: PipelineConfig | None = None,
        executor: Executor | None = None,
        plane=None,
    ):
        self._sources = sources
        self._config = config or PipelineConfig()
        self._executor = executor or create_executor(self._config.workers)
        self._plane = plane
        self._counter_lock = threading.Lock()
        #: Candidates dropped because a source stayed down through every
        #: retry while assembling their profile.
        self.assembly_failures = 0
        #: Interest queries abandoned because a source stayed down —
        #: that expanded keyword contributed no candidates this run.
        self.retrieval_failures = 0

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def retrieve_candidate_ids(
        self, expanded: list[ExpandedKeyword]
    ) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]]]:
        """Query the interest indexes for every expanded keyword.

        Expansions whose keywords normalize identically are collapsed
        into one query per index: the services normalize the query term
        themselves, so two surface forms of one keyword can only return
        the same answer — issuing both would double the request cost for
        nothing.  The best expansion score of the group carries over,
        which is exactly what the per-keyword ``max`` merge produced
        before.

        Returns two maps — Scholar users and Publons reviewers — each of
        the form ``source_id -> {normalized keyword: best sc}``.
        """
        scholar_matches: dict[str, dict[str, float]] = {}
        publons_matches: dict[str, dict[str, float]] = {}
        groups: dict[str, list[ExpandedKeyword]] = {}
        for expansion in expanded:
            groups.setdefault(normalize_keyword(expansion.keyword), []).append(
                expansion
            )
        queries = [group[0].keyword for group in groups.values()]
        warm_users, warm_reviewers = {}, {}
        if self._plane is not None:
            limit = self._config.per_keyword_retrieval_limit
            keys = [(keyword, limit) for keyword in groups]
            warm_users = self._plane.cached("scholar_interest", keys)
            warm_reviewers = self._plane.cached("publons_interest", keys)
        items = [
            (query, warm_users.get(i, _UNFETCHED), warm_reviewers.get(i, _UNFETCHED))
            for i, query in enumerate(queries)
        ]
        hits = {i: items[i][1:] for i in warm_users if i in warm_reviewers}
        outcomes = self._map_misses(self._query_interest_indexes, items, hits)
        failures = 0
        # Merge in input order so the dicts (and their insertion order)
        # are identical at every worker count.
        for (keyword, group), (users, reviewers) in zip(groups.items(), outcomes):
            score = max(expansion.score for expansion in group)
            if users is None:
                failures += 1
                users = []
            for user in users:
                bucket = scholar_matches.setdefault(user, {})
                bucket[keyword] = max(bucket.get(keyword, 0.0), score)
            if reviewers is None:
                failures += 1
                reviewers = []
            for reviewer in reviewers:
                bucket = publons_matches.setdefault(reviewer, {})
                bucket[keyword] = max(bucket.get(keyword, 0.0), score)
        if failures:
            with self._counter_lock:
                self.retrieval_failures += failures
        return scholar_matches, publons_matches

    def _query_interest_indexes(self, item: tuple[str, object, object]):
        """Query both interest indexes for one expanded keyword.

        ``item`` is ``(keyword, users, reviewers)``; a half already
        served warm rides along and only ``_UNFETCHED`` halves are
        queried.  Each interest query degrades independently: a source
        outage (``None`` in the returned pair) costs one expanded
        keyword's contribution, never the run.
        """
        keyword, users, reviewers = item
        limit = self._config.per_keyword_retrieval_limit
        if users is _UNFETCHED:
            try:
                users = self._interest_ids("scholar", keyword, limit)
            except CrawlError:
                users = None
        if reviewers is _UNFETCHED:
            try:
                reviewers = self._interest_ids("publons", keyword, limit)
            except CrawlError:
                reviewers = None
        return users, reviewers

    def _interest_ids(self, source: str, keyword: str, limit: int) -> list[str]:
        if source == "scholar":
            def query() -> list[str]:
                return self._sources.scholar.scholars_by_interest(keyword, limit=limit)
        else:
            def query() -> list[str]:
                return self._sources.publons.reviewers_by_interest(keyword, limit=limit)
        if self._plane is None:
            return query()
        return self._plane.fetch(
            f"{source}_interest", (normalize_keyword(keyword), limit), query
        )

    def extract_candidates(
        self, expanded: list[ExpandedKeyword]
    ) -> list[Candidate]:
        """The full extraction step: retrieve, cap, assemble, dedupe.

        Scholar-retrieved candidates are assembled first (Scholar is the
        richer anchor); Publons-only candidates are added afterwards,
        skipping anyone whose name already appeared — the name is the
        only cross-service key available at this stage, exactly as in
        the real system.

        Assemblies run through the executor in *waves* sized to the
        remaining candidate budget; selection is then replayed over the
        wave's outcomes in ranked order.  Because a wave never exceeds
        the remaining budget and skipped items simply roll into the next
        wave, the requests issued and the candidates kept are the same
        as a one-at-a-time walk — at any worker count.
        """
        scholar_matches, publons_matches = self.retrieve_candidate_ids(expanded)
        ranked_scholar = self._rank_matches(scholar_matches)
        ranked_publons = self._rank_matches(publons_matches)
        budget = self._config.max_candidates
        candidates: list[Candidate] = []
        seen_names: set[str] = set()
        self._extend_from_scholar(ranked_scholar, budget, candidates, seen_names)
        self._extend_from_publons(ranked_publons, budget, candidates, seen_names)
        return candidates

    def _extend_from_scholar(
        self,
        ranked: list[tuple[str, dict[str, float]]],
        budget: int,
        candidates: list[Candidate],
        seen_names: set[str],
    ) -> None:
        """Assemble Scholar-anchored candidates wave by wave."""
        cursor = 0
        failures = 0
        while cursor < len(ranked) and len(candidates) < budget:
            wave = ranked[cursor : cursor + (budget - len(candidates))]
            cursor += len(wave)
            assembled = self._assemble_wave(
                self._scholar_assembly_task,
                wave,
                "scholar_profile",
                [self._profile_key(user) for user, __ in wave],
            )
            for outcome in assembled:
                if outcome is _FAILED:
                    # A source stayed down through every retry.  Losing
                    # one candidate beats aborting the whole
                    # recommendation; the skip is visible in the
                    # extraction phase's items_out.
                    failures += 1
                    continue
                if outcome is None:
                    continue
                key = canonical_person_name(outcome.name)
                if key in seen_names:
                    continue
                seen_names.add(key)
                candidates.append(outcome)
        if failures:
            with self._counter_lock:
                self.assembly_failures += failures

    def _scholar_assembly_task(self, item: tuple[str, dict[str, float]]):
        user, matched = item
        try:
            template = self._scholar_template(user)
        except CrawlError:
            return _FAILED
        return _stamp_matched(template, matched)

    def _scholar_template(self, user: str) -> Candidate | None:
        """Assemble (or warm-fetch) the request-independent profile."""
        if self._plane is None:
            return self._assemble_from_scholar(user)
        return self._plane.fetch(
            "scholar_profile",
            self._profile_key(user),
            lambda: self._assemble_from_scholar(user),
        )

    def _profile_key(self, user: str) -> tuple[str, bool]:
        return (user, self._config.use_all_sources)

    def _extend_from_publons(
        self,
        ranked: list[tuple[str, dict[str, float]]],
        budget: int,
        candidates: list[Candidate],
        seen_names: set[str],
    ) -> None:
        """Add Publons-only candidates, two fan-outs per wave.

        The summary fetch is cheap and yields the candidate's name (the
        de-duplication key), so each wave first fetches summaries, then
        assembles only the reviewers that survive the replayed skip
        rules.  A reviewer whose name collides with an *unresolved*
        earlier wave member is deferred — sequentially it would only be
        skipped if that earlier assembly succeeds — carrying its fetched
        summary so no request is re-issued.
        """
        queue: list[tuple[str, dict[str, float], object]] = [
            (reviewer, matched, _UNFETCHED) for reviewer, matched in ranked
        ]
        failures = 0
        while queue and len(candidates) < budget:
            wave = queue[: budget - len(candidates)]
            queue = queue[len(wave) :]
            summaries = self._map_misses(
                self._publons_summary_task, wave, self._known_summaries(wave)
            )
            chosen: list[tuple[str, dict[str, float], dict]] = []
            wave_keys: set[str] = set()
            deferred = None
            for index, ((reviewer, matched, __), summary) in enumerate(
                zip(wave, summaries)
            ):
                if summary is _FAILED:
                    failures += 1
                    continue
                if summary is None:
                    continue
                key = canonical_person_name(summary["name"])
                if key in seen_names:
                    continue
                if key in wave_keys:
                    # Same name as a wave member whose assembly hasn't
                    # resolved yet; push the rest of the wave back (with
                    # summaries attached) and settle it next round.
                    deferred = index
                    break
                wave_keys.add(key)
                chosen.append((reviewer, matched, summary))
            if deferred is not None:
                queue = [
                    (reviewer, matched, summary)
                    for (reviewer, matched, __), summary in zip(
                        wave[deferred:], summaries[deferred:]
                    )
                ] + queue
            assembled = self._assemble_wave(
                self._publons_assembly_task,
                chosen,
                "publons_candidate",
                [reviewer for reviewer, __, __ in chosen],
            )
            for (reviewer, matched, summary), outcome in zip(chosen, assembled):
                if outcome is _FAILED:
                    failures += 1
                    continue
                if outcome is None:
                    continue
                key = canonical_person_name(summary["name"])
                if key in seen_names:
                    continue
                seen_names.add(key)
                candidates.append(outcome)
        if failures:
            with self._counter_lock:
                self.assembly_failures += failures

    def _known_summaries(self, wave) -> dict[int, object]:
        """Summaries a wave needs no task for: carried over, or warm hits."""
        if self._plane is None:
            return {}
        known = {i: item[2] for i, item in enumerate(wave) if item[2] is not _UNFETCHED}
        pending = [i for i in range(len(wave)) if i not in known]
        found = self._plane.cached("publons_summary", [wave[i][0] for i in pending])
        known.update((pending[j], summary) for j, summary in found.items())
        return known

    def _publons_summary_task(self, item: tuple[str, dict[str, float], object]):
        reviewer, __, cached = item
        if cached is not _UNFETCHED:
            return cached
        try:
            if self._plane is None:
                return self._sources.publons.reviewer_summary(reviewer)
            return self._plane.fetch(
                "publons_summary",
                reviewer,
                lambda: self._sources.publons.reviewer_summary(reviewer),
            )
        except CrawlError:
            return _FAILED

    def _publons_assembly_task(self, item: tuple[str, dict[str, float], dict]):
        reviewer, matched, summary = item
        try:
            if self._plane is None:
                template = self._assemble_from_publons(reviewer, summary)
            else:
                template = self._plane.fetch(
                    "publons_candidate",
                    reviewer,
                    lambda: self._assemble_from_publons(reviewer, summary),
                )
        except CrawlError:
            return _FAILED
        return _stamp_matched(template, matched)

    def _assemble_wave(self, task, wave: list, layer: str, keys: list) -> list:
        """Assembly outcomes for ``wave``, warm templates stamped inline.

        ``keys`` are the plane keys of ``layer`` for the wave's items,
        whose second element is the matched-keyword map to stamp.
        """
        hits: dict[int, object] = {}
        if self._plane is not None:
            templates = self._plane.cached(layer, keys)
            hits = {i: _stamp_matched(t, wave[i][1]) for i, t in templates.items()}
        return self._map_misses(task, wave, hits)

    def _map_misses(self, task, items: list, hits: dict[int, object]) -> list:
        """``task`` over ``items``, with the warm ``hits`` already resolved.

        Each hit's outcome is stamped inline and only the misses become
        executor tasks — no ``map`` at all when every item hit.  Cold (no
        plane) there are no hits, so the whole wave maps.  Outcomes come
        back in item order.
        """
        misses = [i for i in range(len(items)) if i not in hits]
        outcomes = dict(hits)
        if misses:
            resolved = self._executor.map(task, [items[i] for i in misses])
            outcomes.update(zip(misses, resolved))
        return [outcomes[i] for i in range(len(items))]

    @staticmethod
    def _rank_matches(
        matches: dict[str, dict[str, float]]
    ) -> list[tuple[str, dict[str, float]]]:
        """Order retrieved ids by aggregate matched-``sc``, best first.

        Ties keep id order: the ids are sorted first, and the stable
        sort on the float total moves only unequal totals.  Most totals
        tie, and two flat sorts beat one over ``(total, id)`` tuples.
        """
        ranked = [(source_id, matches[source_id]) for source_id in sorted(matches)]
        ranked.sort(key=lambda item: -sum(item[1].values()))
        return ranked

    # ------------------------------------------------------------------
    # Profile assembly
    # ------------------------------------------------------------------

    def _assemble_from_scholar(self, user: str) -> Candidate | None:
        scholar_page = self._sources.scholar.profile_page(user)
        if scholar_page is None:
            return None
        scholar_profile = scholar_page.profile
        profiles: list[SourceProfile] = [scholar_profile]
        known_pubs = set(scholar_profile.publication_ids)
        name = scholar_profile.name
        dblp_profile, dblp_pubs = self._link_dblp(name, known_pubs)
        if dblp_profile is not None:
            profiles.append(dblp_profile)
            known_pubs |= set(dblp_profile.publication_ids)
        orcid_profile = self._link_orcid(name, known_pubs)
        if orcid_profile is not None:
            profiles.append(orcid_profile)
        publons_summary = self._link_publons_summary(name)
        if publons_summary is not None:
            profiles.append(_publons_summary_to_profile(publons_summary))
        if self._config.use_all_sources:
            profiles.extend(self._link_extra_sources(name, known_pubs))
        candidate = Candidate(
            candidate_id=user,
            name=name,
            profile=merge_source_profiles(profiles),
            scholar_publications=list(scholar_page.publications),
            dblp_publications=dblp_pubs,
        )
        _apply_publons_summary(candidate, publons_summary)
        return candidate

    def _assemble_from_publons(self, reviewer: str, summary: dict) -> Candidate | None:
        profiles: list[SourceProfile] = [_publons_summary_to_profile(summary)]
        name = summary["name"]
        dblp_profile, dblp_pubs = self._link_dblp(name, set())
        known_pubs = set()
        if dblp_profile is not None:
            profiles.append(dblp_profile)
            known_pubs = set(dblp_profile.publication_ids)
        orcid_profile = self._link_orcid(name, known_pubs)
        if orcid_profile is not None:
            profiles.append(orcid_profile)
        candidate = Candidate(
            candidate_id=reviewer,
            name=name,
            profile=merge_source_profiles(profiles),
            dblp_publications=dblp_pubs,
        )
        _apply_publons_summary(candidate, summary)
        return candidate

    # ------------------------------------------------------------------
    # Per-source linking (candidate flavour: cheap, name-anchored)
    # ------------------------------------------------------------------

    def _link_dblp(
        self, name: str, known_pubs: set[str]
    ) -> tuple[SourceProfile | None, list[dict]]:
        """The DBLP profile and publication list for a candidate name.

        A unique hit is linked on the name.  Among homonyms, the page
        with the best publication overlap wins, and the page fetched
        for the comparison is the one returned: each author page is
        requested once.
        """
        hits = self._sources.dblp.search_author(name)
        if not hits:
            return None, []
        if len(hits) == 1:
            page = self._sources.dblp.author_page(hits[0]["pid"])
        else:
            page = None
            best_overlap = 0
            for hit in hits:
                hit_page = self._sources.dblp.author_page(hit["pid"])
                if hit_page is None:
                    continue
                overlap = len(known_pubs & set(hit_page.profile.publication_ids))
                if overlap > best_overlap:
                    best_overlap = overlap
                    page = hit_page
        if page is None:
            return None, []
        return page.profile, list(page.publications)

    def _link_orcid(self, name: str, known_pubs: set[str]) -> SourceProfile | None:
        hits = self._sources.orcid.search(name)
        if not hits:
            return None
        if len(hits) == 1:
            return self._sources.orcid.record(hits[0]["orcid"])
        best: tuple[int, SourceProfile] | None = None
        for hit in hits[:5]:
            record = self._sources.orcid.record(hit["orcid"])
            if record is None:
                continue
            overlap = len(known_pubs & set(record.publication_ids))
            if overlap > 0 and (best is None or overlap > best[0]):
                best = (overlap, record)
        return best[1] if best else None

    def _link_publons_summary(self, name: str) -> dict | None:
        hits = self._sources.publons.search_reviewer(name)
        if not hits:
            return None
        return self._sources.publons.reviewer_summary(hits[0]["reviewer_id"])

    def _link_extra_sources(
        self, name: str, known_pubs: set[str]
    ) -> list[SourceProfile]:
        extra: list[SourceProfile] = []
        acm_hits = self._sources.acm.search_author(name)
        if len(acm_hits) == 1:
            profile = self._sources.acm.profile(acm_hits[0]["profile_id"])
            if profile is not None:
                extra.append(profile)
        rid_hits = self._sources.rid.search(name)
        if len(rid_hits) == 1:
            profile = self._sources.rid.profile(rid_hits[0]["rid"])
            if profile is not None:
                extra.append(profile)
        return extra


def _publons_summary_to_profile(summary: dict) -> SourceProfile:
    """Repackage a Publons summary payload as a :class:`SourceProfile`."""
    from repro.scholarly.records import SourceName

    return SourceProfile(
        source=SourceName.PUBLONS,
        source_author_id=summary["reviewer_id"],
        name=summary["name"],
        interests=tuple(summary.get("interests", ())),
    )


def _apply_publons_summary(candidate: Candidate, summary: dict | None) -> None:
    """Stamp the review-history fields onto a candidate."""
    if summary is None:
        return
    candidate.review_count = int(summary.get("review_count", 0))
    candidate.on_time_rate = summary.get("on_time_rate")
    candidate.venues_reviewed = list(summary.get("venues_reviewed", ()))


def _stamp_matched(template: Candidate | None, matched: dict[str, float]) -> Candidate | None:
    """A per-request copy of a template with the matched keywords stamped.

    Templates may be shared across requests through the retrieval plane
    and :class:`Candidate` is mutable, so every request gets its own
    instance with fresh container fields — downstream phases are free to
    mutate them without corrupting the cache.  ``None`` (no profile)
    passes through.  A shallow copy of the template's fields, not
    :func:`dataclasses.replace`, which re-runs ``__init__`` at more than
    twice the cost.
    """
    if template is None:
        return None
    stamped = Candidate.__new__(Candidate)
    stamped.__dict__ = {
        **template.__dict__,
        "matched_keywords": dict(matched),
        "keyword_match_score": max(matched.values(), default=0.0),
        "scholar_publications": list(template.scholar_publications),
        "dblp_publications": list(template.dblp_publications),
        "venues_reviewed": list(template.venues_reviewed),
    }
    return stamped

"""The MINARET pipeline: extract → filter → rank (paper Fig. 2).

:class:`Minaret` is the framework's front door.  It wires the keyword
expander, identity verifier, candidate extractor, filter phase and
ranker together, and instruments each phase with wall-clock time,
virtual (simulated network) time and request counts — the accounting
behind the FIG2 and EXP-SCALE experiments.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

from repro.concurrency import create_executor
from repro.core.config import (
    AggregationMethod,
    ImpactMetric,
    PipelineConfig,
    RankingWeights,
)
from repro.core.extraction import CandidateExtractor
from repro.core.filtering import FilterPhase
from repro.core.identity import IdentityResolver, IdentityVerifier
from repro.core.models import Manuscript, PhaseReport, RecommendationResult
from repro.core.ranking import Ranker
from repro.obs import get_obs
from repro.obs.ledger import RequestLedger
from repro.ontology.data import build_seed_ontology
from repro.ontology.expansion import KeywordExpander
from repro.ontology.graph import TopicOntology
from repro.retrieval import RetrievalPlane
from repro.scoring.features import FeatureStore, ScoringContext
from repro.web.crawler import CrawlError


class Minaret:
    """The reviewer recommendation framework.

    Parameters
    ----------
    sources:
        Any object exposing the six typed source clients as attributes
        ``dblp``, ``scholar``, ``publons``, ``acm``, ``orcid``, ``rid``
        — typically a :class:`~repro.scholarly.registry.ScholarlyHub`.
        Phase reports count the requests its clients issue and their
        virtual time.
    ontology:
        The topic ontology for keyword expansion; defaults to the
        curated seed ontology.
    config:
        All pipeline tunables; defaults are the demo's.
    resolver:
        Identity-ambiguity resolution strategy; defaults to automatic
        affiliation-evidence resolution (strict failure when evidence is
        insufficient).
    plane:
        A shared warm-path :class:`~repro.retrieval.RetrievalPlane`.
        When omitted, one is created iff ``config.warm_cache`` is set;
        pass an existing plane to share its store across pipelines (the
        API deployment does this per hub).  ``None`` with
        ``warm_cache=False`` is the paper's pure on-the-fly mode.
    expander:
        A shared :class:`~repro.ontology.expansion.KeywordExpander`,
        whose memo then outlives this pipeline (the API deployment keeps
        one).  It is called with ``config.expansion``.  When omitted,
        one is built over ``ontology``.

    Example
    -------
    >>> # hub = ScholarlyHub.deploy(generate_world())
    >>> # minaret = Minaret(hub)
    >>> # result = minaret.recommend(manuscript)
    >>> # result.top(5)
    """

    def __init__(
        self,
        sources,
        ontology: TopicOntology | None = None,
        config: PipelineConfig | None = None,
        resolver: IdentityResolver | None = None,
        plane: RetrievalPlane | None = None,
        expander: KeywordExpander | None = None,
    ):
        self._sources = sources
        self._config = config or PipelineConfig()
        if expander is None:
            expander = KeywordExpander(
                ontology or build_seed_ontology(), self._config.expansion
            )
        self._expander = expander
        self._executor = create_executor(self._config.workers)
        if plane is None and self._config.warm_cache:
            plane = RetrievalPlane.for_sources(
                sources,
                ttl=self._config.warm_cache_ttl,
                capacity=self._config.warm_cache_capacity,
            )
        self._plane = plane
        self._verifier = IdentityVerifier(
            sources,
            resolver=resolver,
            use_all_sources=self._config.use_all_sources,
            plane=plane,
        )
        self._extractor = CandidateExtractor(
            sources, self._config, executor=self._executor, plane=plane
        )
        # One feature store for filtering *and* ranking, shared across
        # every manuscript this pipeline sees.  When a warm retrieval
        # plane is attached, the store hangs off it — shared across
        # pipelines and invalidated by the same epoch bump that
        # invalidates cached profiles.
        self._features = plane.feature_store() if plane is not None else FeatureStore()
        scoring_context = ScoringContext.from_config(self._config)
        self._filter = FilterPhase(
            self._config.filters,
            current_year=self._config.current_year,
            features=self._features,
            scoring_context=scoring_context,
        )
        self._ranker = Ranker(
            self._config, features=self._features, context=scoring_context
        )

    @property
    def config(self) -> PipelineConfig:
        """The active pipeline configuration."""
        return self._config

    @property
    def sources(self):
        """The source bundle this pipeline queries."""
        return self._sources

    @property
    def expander(self) -> KeywordExpander:
        """The keyword-expansion engine (exposed for experiments)."""
        return self._expander

    @property
    def plane(self) -> RetrievalPlane | None:
        """The attached warm-path retrieval plane, if any."""
        return self._plane

    @property
    def features(self) -> FeatureStore:
        """The feature store the filter and ranking phases share."""
        return self._features

    def recommend(self, manuscript: Manuscript) -> RecommendationResult:
        """Run the full three-phase workflow on one manuscript."""
        with get_obs().span(
            "pipeline.recommend",
            title=manuscript.title,
            workers=self._config.workers,
        ):
            return self._recommend(manuscript)

    def _recommend(self, manuscript: Manuscript) -> RecommendationResult:
        reports: list[PhaseReport] = []

        with self._phase("verify_authors", reports) as report:
            report.items_in = len(manuscript.authors)
            verified = self._verifier.verify_all(manuscript.authors)
            report.items_out = len(verified)

        with self._phase("crawl_outlet", reports) as report:
            # Fig. 2's "Crawl Journal/Conf. Data" box: resolve the target
            # outlet the editor typed to its canonical venue record, so
            # the familiarity component matches on the venue's real name.
            report.items_in = 1 if manuscript.target_venue else 0
            manuscript = self._resolve_target_venue(manuscript)
            report.items_out = 1 if manuscript.target_venue else 0

        with self._phase("expand_keywords", reports) as report:
            report.items_in = len(manuscript.keywords)
            expanded = self._expander.expand(
                list(manuscript.keywords), self._config.expansion
            )
            report.items_out = len(expanded)

        with self._phase("extract_candidates", reports) as report:
            report.items_in = len(expanded)
            candidates = self._extractor.extract_candidates(expanded)
            report.items_out = len(candidates)

        with self._phase("filter", reports) as report:
            report.items_in = len(candidates)
            kept, decisions = self._filter.apply(candidates, verified)
            report.items_out = len(kept)

        with self._phase("rank", reports) as report:
            report.items_in = len(kept)
            ranked = self._ranker.rank(manuscript, kept, expanded)
            report.items_out = len(ranked)

        return RecommendationResult(
            manuscript=manuscript,
            verified_authors=verified,
            expanded_keywords=expanded,
            candidates=candidates,
            filter_decisions=decisions,
            ranked=ranked,
            phase_reports=reports,
        )

    def rerank(
        self,
        result: RecommendationResult,
        weights: RankingWeights | None = None,
        aggregation: AggregationMethod | None = None,
        owa_weights: tuple[float, ...] | None = None,
        impact_metric: ImpactMetric | None = None,
    ) -> RecommendationResult:
        """Re-rank an existing result under different scoring settings.

        The demo lets the editor "configure the weights of the different
        components" and watch the list reorder — that interaction must
        not re-crawl the scholarly web.  Everything extraction and
        filtering produced is reused; only the ranking phase runs again.
        """
        from repro.core.ranking import Ranker

        config = self._config
        if weights is not None:
            config = dataclasses.replace(config, weights=weights)
        if aggregation is not None:
            config = dataclasses.replace(config, aggregation=aggregation)
        if owa_weights is not None:
            config = dataclasses.replace(config, owa_weights=owa_weights)
        if impact_metric is not None:
            config = dataclasses.replace(config, impact_metric=impact_metric)
        kept_ids = {d.candidate_id for d in result.filter_decisions if d.kept}
        kept = [c for c in result.candidates if c.candidate_id in kept_ids]
        reports = list(result.phase_reports)
        with self._phase("rerank", reports) as report:
            report.items_in = len(kept)
            # Reuse the pipeline's feature store when the scoring
            # context is unchanged by the overrides (weights /
            # aggregation / impact metric never feed features).
            ranked = Ranker(config, features=self._features).rank(
                result.manuscript, kept, result.expanded_keywords
            )
            report.items_out = len(ranked)
        return RecommendationResult(
            manuscript=result.manuscript,
            verified_authors=result.verified_authors,
            expanded_keywords=result.expanded_keywords,
            candidates=result.candidates,
            filter_decisions=result.filter_decisions,
            ranked=ranked,
            phase_reports=reports,
        )

    def _resolve_target_venue(self, manuscript: Manuscript) -> Manuscript:
        """Canonicalize the editor's target-outlet string against DBLP.

        An exact-or-unique match replaces the typed name with the
        venue's canonical one; ambiguity, no match, or an exhausted
        lookup leaves the input untouched (name-based familiarity
        matching still applies) — the lookup is advisory, so a degraded
        DBLP must not sink the whole run.  With a plane attached, each
        typed name is looked up once per epoch (its ``target_venue``
        layer); an exhausted lookup is not stored.
        """
        typed = manuscript.target_venue
        if not typed:
            return manuscript
        try:
            if self._plane is None:
                canonical = self._canonical_venue(typed)
            else:
                canonical = self._plane.fetch(
                    "target_venue", typed, lambda: self._canonical_venue(typed)
                )
        except CrawlError:
            return manuscript
        if canonical == typed:
            return manuscript
        return dataclasses.replace(manuscript, target_venue=canonical)

    def _canonical_venue(self, typed: str) -> str:
        """The DBLP name of a unique venue hit, else ``typed`` itself."""
        hits = self._sources.dblp.search_venue(typed)
        return hits[0]["name"] if len(hits) == 1 else typed

    @contextmanager
    def _phase(self, name: str, reports: list[PhaseReport]):
        """Run one phase, appending its :class:`PhaseReport` if it succeeds.

        The report's requests and virtual time come from a ledger opened
        for the phase, which follows fan-out work into pool threads and
        ignores concurrent runs, and the ``phase.*`` span inside it reads
        the same virtual seconds.
        """
        report = PhaseReport(phase=name)
        with RequestLedger(label=name) as ledger, get_obs().span(f"phase.{name}") as span:
            start = time.perf_counter()
            try:
                yield report
            finally:
                report.wall_seconds = time.perf_counter() - start
                report.requests = ledger.requests
                report.virtual_seconds = ledger.virtual_seconds
                span.set_label("items_in", report.items_in)
                span.set_label("items_out", report.items_out)
                span.set_label("requests", report.requests)
        reports.append(report)

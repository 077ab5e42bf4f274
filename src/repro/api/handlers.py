"""The MINARET REST API endpoints (paper §3).

Endpoints
---------
``GET  /api/v1/health``
    Liveness and version.
``GET  /api/v1/sources``
    Registered scholarly sources with per-host request statistics.
``GET  /api/v1/serving``
    The serving front-end's admission statistics — queue depth,
    admitted/shed/degraded counts, per-tenant token-bucket state and
    served-latency quantiles (``{"enabled": false}`` when the
    deployment runs unfronted; see :mod:`repro.serving`).
``POST /api/v1/expand``
    Semantic keyword expansion: ``{keywords, max_depth?, min_score?}``.
``POST /api/v1/verify-authors``
    Identity verification for an author list (the Fig. 4 step).
``POST /api/v1/recommend``
    The full workflow: ``{manuscript: {...}, config?: {...}, top_k?}``.
``POST /api/v1/assign``
    Conference mode (§3): run the workflow for several manuscripts and
    solve the cross-paper assignment under capacity constraints:
    ``{manuscripts: [{paper_id, manuscript}], reviewers_per_paper?,
    capacity? (alias max_load?), solver?, balance_weight?,
    coverage_weight?, top_k?, on_error?, require_full?, config?,
    workers?}``.
    ``workers > 1`` runs the per-paper pipelines in parallel with
    identical output; ``on_error: "skip"`` reports failed papers in the
    response instead of aborting; ``require_full: true`` turns an
    under-filled program into a 409 (the flag must be a JSON boolean).
    Paper ids must be distinct non-empty strings and the sizes at
    least 1; a violation answers 400, naming the field sent, before
    any pipeline runs.  Only these up-front checks answer 400: any other
    ``ValueError`` from the run is a 500, as on every route.

Author names and keywords must be non-empty JSON strings on every
endpoint that takes them; anything else answers 400 before any source
is crawled.
``GET  /api/v1/metrics``
    The deployment's observability snapshot: counters, gauges and
    histograms (with p50/p95/p99 estimates and trace exemplars) from
    the ambient :mod:`repro.obs` registry, plus per-host HTTP
    statistics, the crawler cache's hit ratio (``null`` at
    ``cache_ttl=0``, which builds no crawler cache), and retrieval-plane
    and feature-store stats.  ``?format=prometheus`` returns the registry
    in the Prometheus text exposition format instead.
``GET  /api/v1/slo``
    Every registered SLO's full status: verdict, good-ratio over the
    compliance window, budget consumption, and per-tier burn rates.
``GET  /api/v1/profile``
    The deterministic phase profiler: per-span-name self-time rollups
    (flame table) over the retained span forest.
``GET  /api/v1/trace`` / ``GET /api/v1/trace/{trace_id}``
    Request traces *and* the span forest: every finished span as a
    nested tree (phases above their fan-out tasks), optionally filtered
    to a single trace id.

Cost attribution
----------------
Any POST carrying ``"debug_cost": true`` gets a ``cost`` object on its
response: the request's itemized bill (HTTP by host, waits, cache
traffic, features built/reused, prune rate, per-phase timings) from a
:class:`~repro.obs.RequestLedger` scoped to exactly that request.  The
flag must be a JSON boolean; anything else answers 400.
"""

from __future__ import annotations

import threading
import time

from repro.api.router import (
    ApiError,
    ApiRequest,
    ApiResponse,
    Router,
    ValidationError,
)
from repro.api.serialization import (
    as_bool,
    as_float,
    as_int,
    as_name,
    author_from_payload,
    batch_from_payload,
    config_from_payload,
    manuscript_from_payload,
    result_to_payload,
    slo_report_to_payload,
)
from repro.core.errors import AmbiguousIdentityError, IdentityVerificationError
from repro.core.identity import IdentityVerifier
from repro.core.pipeline import Minaret
from repro.obs import (
    Observability,
    RequestLedger,
    TailRetentionPolicy,
    default_http_slos,
    deployment_metrics,
    phase_profile,
    render_prometheus,
    use,
)
from repro.ontology.expansion import ExpansionConfig, KeywordExpander
from repro.ontology.graph import TopicOntology

#: Trace-ring capacity the API applies when its HTTP client has tracing
#: off — a client built with ``trace_capacity=0`` would otherwise leave
#: ``GET /api/v1/trace`` permanently empty.
DEFAULT_TRACE_CAPACITY = 256


def _top_k(request: ApiRequest) -> int | None:
    """The optional ``top_k`` field: absent, or an integer >= 1."""
    top_k = request.body.get("top_k")
    if top_k is None:
        return None
    top_k = as_int(top_k, "top_k")
    if top_k < 1:
        raise ApiError(400, "top_k must be >= 1")
    return top_k


class MinaretApi:
    """The API facade over one deployment of the framework.

    ``sources`` is the usual six-client bundle (a ``ScholarlyHub``);
    one :class:`Minaret` pipeline is built per ``/recommend`` call so
    that per-request config overrides apply cleanly.

    Each API instance owns an :class:`~repro.obs.Observability` (pass
    ``obs`` to share one) and installs it as the ambient instance for
    the duration of every request, so all telemetry produced while
    handling — spans, metrics, events, from any pool thread — lands in
    this deployment's registry and is served back by ``/api/v1/metrics``
    and ``/api/v1/trace``.

    The deployment also owns a single warm-path
    :class:`~repro.retrieval.RetrievalPlane`, created lazily on the
    first request whose config sets ``warm_cache`` and shared by every
    warm request thereafter — cross-request reuse is the point.  Its
    stats appear under ``retrieval`` on ``/api/v1/metrics``.  One
    :class:`~repro.ontology.expansion.KeywordExpander` serves every
    request, so each keyword is expanded once per expansion config
    (its memo is a bounded LRU).
    """

    def __init__(
        self,
        sources,
        ontology: TopicOntology | None = None,
        resolver=None,
        obs: Observability | None = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        slos=None,
        tail_retention: TailRetentionPolicy | None = None,
    ):
        from repro.ontology.data import build_seed_ontology

        self._sources = sources
        self._expander = KeywordExpander(ontology or build_seed_ontology())
        self._resolver = resolver
        self._obs = obs or Observability()
        self._plane = None
        self._plane_lock = threading.Lock()
        http = getattr(sources, "http", None)
        if (
            http is not None
            and trace_capacity > 0
            and not getattr(http, "tracing_enabled", True)
        ):
            http.enable_tracing(trace_capacity)
        # SLOs: the engine watches this deployment's registry against the
        # simulation's virtual clock.  ``slos=None`` installs one
        # availability+latency objective per simulated host; pass an
        # explicit (possibly empty) list to override.
        clock = getattr(sources, "clock", None)
        if clock is not None:
            self._obs.slo.bind_clock(clock)
        if slos is None and http is not None:
            slos = default_http_slos(http.hosts())
        for spec in slos or ():
            self._obs.slo.add(spec)
        # Tail-based retention is opt-in: keep-all remains the default so
        # every healthy request's span tree stays inspectable via /trace.
        if tail_retention is not None:
            self._obs.tracer.enable_tail_retention(tail_retention)
        self._serving = None
        self._router = Router()
        self._router.add("GET", "/api/v1/health", self._health)
        self._router.add("GET", "/api/v1/sources", self._source_stats)
        self._router.add("GET", "/api/v1/serving", self._serving_stats)
        self._router.add("GET", "/api/v1/metrics", self._metrics)
        self._router.add("GET", "/api/v1/slo", self._slo)
        self._router.add("GET", "/api/v1/profile", self._profile)
        self._router.add("GET", "/api/v1/trace", self._trace)
        self._router.add("GET", "/api/v1/trace/{trace_id}", self._trace)
        self._router.add("POST", "/api/v1/expand", self._expand)
        self._router.add("POST", "/api/v1/verify-authors", self._verify_authors)
        self._router.add("POST", "/api/v1/recommend", self._recommend)
        self._router.add("POST", "/api/v1/assign", self._assign)

    @property
    def obs(self) -> Observability:
        """This deployment's observability instance."""
        return self._obs

    @property
    def sources(self):
        """The deployment's scholarly source bundle (the hub)."""
        return self._sources

    @property
    def plane(self):
        """The deployment's shared retrieval plane (``None`` until warm)."""
        return self._plane

    @property
    def expander(self) -> KeywordExpander:
        """The deployment's shared keyword expander."""
        return self._expander

    @property
    def serving(self):
        """The attached serving front-end (``None`` when unfronted)."""
        return self._serving

    def attach_serving(self, frontend) -> None:
        """Register the deployment's serving front-end.

        Called by :class:`~repro.serving.ServingFrontend` on
        construction so ``GET /api/v1/serving`` reports admission-queue
        and shed/degrade statistics for the deployment.
        """
        self._serving = frontend

    def _plane_for(self, config):
        """The shared plane when ``config`` wants the warm path."""
        if not config.warm_cache:
            return None
        with self._plane_lock:
            if self._plane is None:
                from repro.retrieval import RetrievalPlane

                # First warm request's TTL/capacity win: the plane is a
                # deployment resource, not a per-request one.
                self._plane = RetrievalPlane.for_sources(
                    self._sources,
                    ttl=config.warm_cache_ttl,
                    capacity=config.warm_cache_capacity,
                )
            return self._plane

    def handle(self, method: str, path: str, body: dict | None = None) -> ApiResponse:
        """Entry point: dispatch one API call.

        Beyond dispatch this is the telemetry chokepoint: the request
        runs under this deployment's ambient observability inside an
        ``api.request`` span, the SLO engine checkpoints after every
        request (its heartbeat), 5xx responses pin their trace for
        tail-based retention, and a ``debug_cost`` body flag wraps the
        request in a :class:`~repro.obs.RequestLedger` whose bill is
        attached to the response and emitted as a ``request_cost`` event.
        """
        start = time.perf_counter()
        clock = getattr(self._sources, "clock", None)
        debug_cost = (body or {}).get("debug_cost", False)
        ledger = (
            RequestLedger(f"{method} {path}")
            if self._obs.enabled and debug_cost is True
            else None
        )
        with use(self._obs):
            with self._obs.span(
                "api.request",
                clock=clock,
                method=method,
                path=path,
            ) as span:
                if not isinstance(debug_cost, bool):
                    response = ApiResponse(
                        400,
                        {"error": f"debug_cost must be a JSON boolean, got {debug_cost!r}"},
                    )
                elif ledger is not None:
                    with ledger:
                        response = self._router.dispatch(method, path, body)
                else:
                    response = self._router.dispatch(method, path, body)
                span.set_label("status", response.status)
                if response.status >= 500:
                    trace_id = getattr(span, "trace_id", None)
                    if trace_id is not None:
                        self._obs.tracer.mark_retain(trace_id)
            if ledger is not None:
                bill = ledger.to_dict()
                if response.ok:
                    response.body["cost"] = bill
                self._obs.emit("request_cost", clock=clock, **bill)
            if self._obs.slo.has_specs:
                self._obs.slo.tick()
        self._obs.inc(
            "api_requests_total", route=path, method=method, status=str(response.status)
        )
        self._obs.observe(
            "api_latency_seconds", time.perf_counter() - start, route=path
        )
        return response

    def routes(self) -> list[tuple[str, str]]:
        """All exposed ``(method, path)`` pairs."""
        return self._router.routes()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _health(self, request: ApiRequest) -> dict:
        from repro import __version__

        # The health verdict is the worst verdict across registered SLOs
        # — "ok" when nothing is registered or no traffic has flowed, so
        # a fresh deployment is healthy by definition.
        engine = self._obs.slo
        slos = {
            status.name: {
                "verdict": status.verdict,
                "good_ratio": round(status.good_ratio, 6),
                "objective": status.objective,
            }
            for status in engine.report()
        }
        return {
            "status": engine.verdict(),
            "version": __version__,
            "slos": slos,
        }

    def _source_stats(self, request: ApiRequest) -> dict:
        http = getattr(self._sources, "http", None)
        if http is None:
            return {"sources": []}
        return {
            "sources": [
                {
                    "host": host,
                    "requests": stats.requests,
                    "rate_limited": stats.rate_limited,
                    "faults": stats.faults,
                    "total_latency": round(stats.total_latency, 4),
                }
                for host, stats in sorted(http.stats.items())
            ]
        }

    def _metrics(self, request: ApiRequest) -> dict:
        if request.query.get("format") == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4",
                "text": render_prometheus(self._obs.metrics.snapshot()),
            }
        http = getattr(self._sources, "http", None)
        cache = getattr(getattr(self._sources, "crawler", None), "cache", None)
        return deployment_metrics(
            self._obs,
            http=http,
            cache=cache,
            plane=self._plane,
            features=(
                self._plane.feature_store() if self._plane is not None else None
            ),
            serving=self._serving,
        )

    def _serving_stats(self, request: ApiRequest) -> dict:
        if self._serving is None:
            return {"enabled": False}
        return {"enabled": True, **self._serving.stats()}

    def _slo(self, request: ApiRequest) -> dict:
        return slo_report_to_payload(self._obs.slo)

    def _profile(self, request: ApiRequest) -> dict:
        profiles = phase_profile(self._obs.tracer.finished())
        return {
            "profiles": [profile.to_dict() for profile in profiles],
            "retention": self._obs.tracer.retention_stats(),
        }

    def _trace(self, request: ApiRequest) -> dict:
        trace_id = request.path_params.get("trace_id")
        if trace_id is not None:
            try:
                trace_id = int(trace_id)
            except ValueError as exc:
                raise ApiError(400, f"trace_id must be an integer: {trace_id!r}") from exc
        spans = self._obs.tracer.span_trees(trace_id=trace_id)
        http = getattr(self._sources, "http", None)
        if http is None:
            return {"traces": [], "enabled": False, "spans": spans}
        traces = http.traces()
        return {
            "enabled": bool(getattr(http, "tracing_enabled", False)),
            "traces": [
                {
                    "host": trace.host,
                    "path": trace.path,
                    "params": dict(trace.params),
                    "status": trace.status,
                    "latency": round(trace.latency, 4),
                    "at": round(trace.at, 4),
                }
                for trace in traces
            ],
            "spans": spans,
        }

    def _expand(self, request: ApiRequest) -> dict:
        keywords = request.require("keywords")
        if not isinstance(keywords, list) or not keywords:
            raise ApiError(400, "keywords must be a non-empty list")
        try:
            config = ExpansionConfig(
                max_depth=as_int(request.body.get("max_depth", 2), "max_depth"),
                min_score=as_float(request.body.get("min_score", 0.5), "min_score"),
            )
        except ValueError as exc:
            # The config's own range checks name the field.
            raise ValidationError(str(exc)) from exc
        expansions = self._expander.expand(
            [as_name(k, f"keywords[{index}]") for index, k in enumerate(keywords)],
            config,
        )
        return {
            "expansions": [
                {
                    "keyword": e.keyword,
                    "score": e.score,
                    "seed": e.seed,
                    "depth": e.depth,
                }
                for e in expansions
            ]
        }

    def _verify_authors(self, request: ApiRequest) -> dict:
        authors_payload = request.require("authors")
        if not isinstance(authors_payload, list) or not authors_payload:
            raise ApiError(400, "authors must be a non-empty list")
        verifier = IdentityVerifier(self._sources, resolver=self._resolver)
        verified = []
        for index, author_payload in enumerate(authors_payload):
            try:
                author = author_from_payload(author_payload, f"authors[{index}]")
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValidationError(
                    f"invalid author entry {author_payload!r}: each needs a name"
                ) from exc
            try:
                result = verifier.verify(author)
            except AmbiguousIdentityError as exc:
                raise ApiError(409, str(exc)) from exc
            except IdentityVerificationError as exc:
                raise ApiError(404, str(exc)) from exc
            verified.append(
                {
                    "name": author.name,
                    "canonical_name": result.profile.canonical_name,
                    "ambiguous": result.ambiguous,
                    "matches": [
                        {
                            "source": match.source.value,
                            "source_author_id": match.source_author_id,
                            "evidence": match.evidence,
                            "confidence": match.confidence,
                        }
                        for match in result.candidates_considered
                    ],
                    "source_ids": {
                        source.value: source_id
                        for source, source_id in result.profile.source_ids
                    },
                }
            )
        return {"verified": verified}

    def _recommend(self, request: ApiRequest) -> dict:
        manuscript = manuscript_from_payload(request.require("manuscript"))
        config = config_from_payload(request.body.get("config", {}))
        top_k = _top_k(request)
        pipeline = Minaret(
            self._sources,
            config=config,
            resolver=self._resolver,
            plane=self._plane_for(config),
            expander=self._expander,
        )
        try:
            result = pipeline.recommend(manuscript)
        except AmbiguousIdentityError as exc:
            raise ApiError(409, str(exc)) from exc
        except IdentityVerificationError as exc:
            raise ApiError(404, str(exc)) from exc
        return result_to_payload(result, top_k=top_k)

    def _assign(self, request: ApiRequest) -> dict:
        from repro.assignment import (
            AssignmentObjective,
            InfeasibleAssignmentError,
            assign_conference,
            check_assignment_inputs,
        )
        from repro.concurrency import create_executor

        entries = batch_from_payload(request.require("manuscripts"))
        solver_name = str(request.body.get("solver", "optimal"))
        on_error = str(request.body.get("on_error", "raise"))
        if "capacity" in request.body and "max_load" in request.body:
            raise ApiError(400, "pass capacity or max_load, not both")
        # Errors name the field the client sent: ``max_load`` is an alias.
        capacity_field = "max_load" if "max_load" in request.body else "capacity"
        capacity = as_int(request.body.get(capacity_field, 2), capacity_field)
        reviewers_per_paper = as_int(
            request.body.get("reviewers_per_paper", 3), "reviewers_per_paper"
        )
        workers = as_int(request.body.get("workers", 1), "workers")
        top_k = _top_k(request)
        # The run's own checks, made before any request; a ValueError from
        # inside the run is a bug, which the router answers with a 500.
        try:
            check_assignment_inputs(
                entries,
                solver_name,
                on_error,
                reviewers_per_paper=reviewers_per_paper,
                **{capacity_field: capacity},
            )
            executor = create_executor(workers)
            objective = AssignmentObjective(
                balance_weight=as_float(
                    request.body.get("balance_weight", 0.0), "balance_weight"
                ),
                coverage_weight=as_float(
                    request.body.get("coverage_weight", 0.0), "coverage_weight"
                ),
            )
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        config = config_from_payload(request.body.get("config", {}))
        pipeline = Minaret(
            self._sources,
            config=config,
            resolver=self._resolver,
            plane=self._plane_for(config),
            expander=self._expander,
        )
        require_full = as_bool(request.body.get("require_full", False), "require_full")
        try:
            conference = assign_conference(
                pipeline,
                entries,
                reviewers_per_paper=reviewers_per_paper,
                capacity=capacity,
                top_k=top_k,
                solver=solver_name,
                objective=objective,
                executor=executor,
                on_error=on_error,
                require_full=require_full,
            )
        except InfeasibleAssignmentError as exc:
            raise ApiError(409, str(exc)) from exc
        except AmbiguousIdentityError as exc:
            raise ApiError(409, str(exc)) from exc
        except IdentityVerificationError as exc:
            raise ApiError(404, str(exc)) from exc
        names = conference.reviewer_names
        return {
            "solver": solver_name,
            "assignments": {
                paper_id: [
                    {"candidate_id": reviewer, "name": names.get(reviewer, reviewer)}
                    for reviewer in conference.assignment.reviewers_of(paper_id)
                ]
                for paper_id in conference.problem.papers()
            },
            "failures": [
                {
                    "paper_id": failure.paper_id,
                    "error": failure.error,
                    "message": failure.message,
                }
                for failure in conference.failures
            ],
            "objective_value": conference.objective_value,
            "quality": {
                "total_score": conference.quality.total_score,
                "mean_paper_score": conference.quality.mean_paper_score,
                "min_paper_score": conference.quality.min_paper_score,
                "unfilled_slots": conference.quality.unfilled_slots,
                "max_load": conference.quality.max_load,
                "load_stddev": conference.quality.load_stddev,
            },
        }

"""Wiring: stand up all six services and their scraper clients.

:class:`ScholarlyHub` is the one-call deployment of the simulated
scholarly web: it builds every service from a
:class:`~repro.world.model.ScholarlyWorld`, registers each on the shared
simulated HTTP client with a source-appropriate behaviour model (DBLP is
fast and permissive; Google Scholar is slow, rate-limited and flaky —
matching the repro_why note that "Scholar scraping [is] fragile"), and
exposes the typed clients the pipeline consumes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.scholarly.acm import AcmClient, AcmService
from repro.scholarly.dblp import DblpClient, DblpService
from repro.scholarly.orcid import OrcidClient, OrcidService
from repro.scholarly.publons import PublonsClient, PublonsService
from repro.scholarly.records import SourceName
from repro.scholarly.researcherid import ResearcherIdClient, ResearcherIdService
from repro.scholarly.scholar import GoogleScholarClient, GoogleScholarService
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock
from repro.web.crawler import Crawler, RetryPolicy
from repro.web.faults import FaultPolicy
from repro.web.http import LatencyModel, SimulatedHttpClient
from repro.web.ratelimit import TokenBucket
from repro.world.model import ScholarlyWorld


@dataclass(frozen=True)
class SourceBehaviour:
    """Latency / rate-limit / fault profile for one service."""

    latency_base: float
    latency_jitter: float
    rate_capacity: float | None = None
    rate_refill: float | None = None
    failure_probability: float = 0.0


#: Default per-source behaviour, loosely calibrated to the real services'
#: reputations: DBLP has a fast open API; Scholar is slow, throttled and
#: occasionally serves errors to scrapers; the rest sit in between.
DEFAULT_BEHAVIOUR: dict[SourceName, SourceBehaviour] = {
    SourceName.DBLP: SourceBehaviour(0.03, 0.01),
    SourceName.GOOGLE_SCHOLAR: SourceBehaviour(
        0.20, 0.10, rate_capacity=30, rate_refill=10.0, failure_probability=0.02
    ),
    SourceName.PUBLONS: SourceBehaviour(0.10, 0.05, failure_probability=0.01),
    SourceName.ACM_DL: SourceBehaviour(0.08, 0.04),
    SourceName.ORCID: SourceBehaviour(0.05, 0.02),
    SourceName.RESEARCHER_ID: SourceBehaviour(0.12, 0.05),
}


@dataclass
class ScholarlyHub:
    """All services + clients over one simulated web.

    Build with :meth:`deploy`; fields are then fully populated.
    """

    world: ScholarlyWorld
    clock: SimulatedClock
    http: SimulatedHttpClient
    crawler: Crawler
    dblp_service: DblpService
    scholar_service: GoogleScholarService
    publons_service: PublonsService
    acm_service: AcmService
    orcid_service: OrcidService
    rid_service: ResearcherIdService
    dblp: DblpClient
    scholar: GoogleScholarClient
    publons: PublonsClient
    acm: AcmClient
    orcid: OrcidClient
    rid: ResearcherIdClient
    #: Warm-path retrieval planes whose freshness epoch must advance
    #: whenever the services re-index (see ``attach_retrieval_plane``).
    planes: list = field(default_factory=list)

    @classmethod
    def deploy(
        cls,
        world: ScholarlyWorld,
        behaviour: dict[SourceName, SourceBehaviour] | None = None,
        cache_ttl: float | None = 0.0,
        cache_capacity: int = 4096,
        retry: RetryPolicy | None = None,
        fault_seed: int = 0,
        trace_capacity: int = 0,
        wall_latency_scale: float = 0.0,
    ) -> "ScholarlyHub":
        """Stand up the whole simulated scholarly web.

        ``cache_ttl=0`` (the default) is the paper's pure on-the-fly
        mode: every query hits the services, and the crawler gets no
        cache at all (``hub.crawler.cache`` is ``None``), so a fetch
        makes no lookup, counts no miss and charges no ledger.  A
        positive TTL (or ``None`` for immortal entries) builds the
        ``crawler`` response cache — the EXP-SCALE knob.
        ``trace_capacity > 0`` records the most recent requests
        (host, path, status, latency) for inspection via
        ``hub.http.traces()`` or the API's ``/api/v1/trace``; the
        default of 0 keeps bare library use allocation-free, and
        :class:`~repro.api.handlers.MinaretApi` turns the ring on
        itself (``http.enable_tracing``) so API deployments never
        serve a permanently empty trace endpoint.
        ``wall_latency_scale > 0`` makes each request really sleep that
        fraction of its virtual latency — the concurrency benchmarks use
        it to expose thread-level speedup that the instantaneous clock
        would otherwise hide.
        """
        behaviour = behaviour or DEFAULT_BEHAVIOUR
        clock = SimulatedClock()
        http = SimulatedHttpClient(
            clock,
            trace_capacity=trace_capacity,
            wall_latency_scale=wall_latency_scale,
        )
        services = {
            SourceName.DBLP: DblpService(world),
            SourceName.GOOGLE_SCHOLAR: GoogleScholarService(world),
            SourceName.PUBLONS: PublonsService(world),
            SourceName.ACM_DL: AcmService(world),
            SourceName.ORCID: OrcidService(world),
            SourceName.RESEARCHER_ID: ResearcherIdService(world),
        }
        for source, service in services.items():
            model = behaviour.get(source, SourceBehaviour(0.05, 0.02))
            bucket = None
            if model.rate_capacity is not None and model.rate_refill is not None:
                bucket = TokenBucket(model.rate_capacity, model.rate_refill, clock)
            http.register_host(
                service.host,
                service.endpoint,
                latency=LatencyModel(
                    base=model.latency_base,
                    jitter=model.latency_jitter,
                    # zlib.crc32, not hash(): string hashing is salted
                    # per process and would break cross-run determinism.
                    seed=zlib.crc32(source.value.encode()) & 0xFFFF,
                ),
                rate_limit=bucket,
                faults=FaultPolicy(
                    failure_probability=model.failure_probability,
                    seed=fault_seed + (zlib.crc32(source.value.encode()) & 0xFF),
                    name=source.value,
                ),
            )
        cache = None
        if cache_ttl != 0:
            cache = TTLCache(
                ttl=cache_ttl, capacity=cache_capacity, clock=clock, name="crawler"
            )
        crawler = Crawler(http, retry=retry or RetryPolicy(), cache=cache)
        return cls(
            world=world,
            clock=clock,
            http=http,
            crawler=crawler,
            dblp_service=services[SourceName.DBLP],
            scholar_service=services[SourceName.GOOGLE_SCHOLAR],
            publons_service=services[SourceName.PUBLONS],
            acm_service=services[SourceName.ACM_DL],
            orcid_service=services[SourceName.ORCID],
            rid_service=services[SourceName.RESEARCHER_ID],
            dblp=DblpClient(crawler),
            scholar=GoogleScholarClient(crawler),
            publons=PublonsClient(crawler),
            acm=AcmClient(crawler),
            orcid=OrcidClient(crawler),
            rid=ResearcherIdClient(crawler),
        )

    def refresh_services(self) -> None:
        """Rebuild every service from the (possibly mutated) world.

        Models the real sites re-indexing new publications, interests
        and reviews.  The simulated web's behaviour models, statistics,
        clock and — crucially — the crawler's response **cache** are all
        left untouched: a stale cache after a refresh is exactly the
        freshness hazard the paper's on-the-fly design avoids, and the
        EXP-FRESHNESS experiment measures.  Attached warm-path retrieval
        planes, by contrast, *are* epoch-bumped: the plane's contract is
        "never serve a profile the services no longer would" — that is
        what distinguishes it from a naive response cache.
        """
        self.dblp_service = DblpService(self.world)
        self.scholar_service = GoogleScholarService(self.world)
        self.publons_service = PublonsService(self.world)
        self.acm_service = AcmService(self.world)
        self.orcid_service = OrcidService(self.world)
        self.rid_service = ResearcherIdService(self.world)
        for service in (
            self.dblp_service,
            self.scholar_service,
            self.publons_service,
            self.acm_service,
            self.orcid_service,
            self.rid_service,
        ):
            self.http.replace_endpoint(service.host, service.endpoint)
        for plane in self.planes:
            plane.bump_epoch()

    def attach_retrieval_plane(self, plane) -> None:
        """Register a warm-path plane for epoch bumps on re-index.

        Idempotent; :meth:`refresh_services` calls ``bump_epoch()`` on
        every attached plane so cached profiles can never outlive the
        index state they were fetched under.
        """
        if plane not in self.planes:
            self.planes.append(plane)

    def clients(self) -> dict[SourceName, object]:
        """The typed clients, keyed by source name."""
        return {
            SourceName.DBLP: self.dblp,
            SourceName.GOOGLE_SCHOLAR: self.scholar,
            SourceName.PUBLONS: self.publons,
            SourceName.ACM_DL: self.acm,
            SourceName.ORCID: self.orcid,
            SourceName.RESEARCHER_ID: self.rid,
        }

    def total_requests(self) -> int:
        """Requests issued against all services since deployment."""
        return self.http.total_requests()

    def total_latency(self) -> float:
        """Virtual seconds spent on service responses since deployment."""
        return self.http.total_latency()

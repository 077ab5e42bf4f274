"""Parallel runs reproduce sequential output bit-for-bit.

The tentpole guarantee: because every simulated-web decision (latency,
fault fate) is keyed by request content rather than arrival order, the
worker count can only change wall-clock time — never the recommended
reviewers, their scores, or the request volume.
"""

import pytest

from repro.assignment import recommend_batch
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.scholarly.records import SourceName
from repro.scholarly.registry import ScholarlyHub, SourceBehaviour
from repro.world.conference import ConferenceConfig, generate_conference
from tests.conftest import make_manuscript

WORKER_COUNTS = (1, 2, 8)

#: Flaky-but-unthrottled behaviour: per-request fault injection on every
#: source (exercising the retry path) with no rate limiter, so request
#: counts are fully deterministic too.
FLAKY_BEHAVIOUR = {
    SourceName.DBLP: SourceBehaviour(0.03, 0.01, failure_probability=0.05),
    SourceName.GOOGLE_SCHOLAR: SourceBehaviour(0.20, 0.10, failure_probability=0.15),
    SourceName.PUBLONS: SourceBehaviour(0.10, 0.05, failure_probability=0.10),
    SourceName.ACM_DL: SourceBehaviour(0.08, 0.04, failure_probability=0.05),
    SourceName.ORCID: SourceBehaviour(0.05, 0.02, failure_probability=0.10),
    SourceName.RESEARCHER_ID: SourceBehaviour(0.12, 0.05, failure_probability=0.05),
}


def _signature(result):
    """Everything the editor sees: ranked ids, exact scores, breakdowns."""
    return [
        (s.candidate.candidate_id, s.total_score, s.breakdown.as_dict())
        for s in result.ranked
    ]


def _request_accounting(result):
    """Per-phase request counts and virtual time (both exact) from the phase reports."""
    return [
        (r.phase, r.requests, r.virtual_seconds, r.items_in, r.items_out)
        for r in result.phase_reports
    ]


def _batch_entries(world, count=3):
    """Manuscripts by distinct unambiguous authors of the world."""
    entries = []
    for author in world.authors.values():
        if len(world.authors_by_name(author.name)) == 1:
            entries.append((f"paper-{len(entries)}", make_manuscript(world, author)))
            if len(entries) == count:
                return entries
    raise RuntimeError("world has too few unambiguous authors")


class TestExtractionDeterminism:
    def test_identical_output_across_worker_counts(self, world, manuscript):
        runs = {}
        for workers in WORKER_COUNTS:
            hub = ScholarlyHub.deploy(world)
            result = Minaret(hub, config=PipelineConfig(workers=workers)).recommend(
                manuscript
            )
            runs[workers] = (_signature(result), hub.total_requests())
        baseline = runs[WORKER_COUNTS[0]]
        assert baseline[0], "sanity: the pipeline recommended someone"
        for workers in WORKER_COUNTS[1:]:
            assert runs[workers] == baseline

    def test_phase_reports_account_requests_identically(self, world, manuscript):
        reports = {}
        for workers in (1, 8):
            hub = ScholarlyHub.deploy(world)
            result = Minaret(hub, config=PipelineConfig(workers=workers)).recommend(
                manuscript
            )
            reports[workers] = (_request_accounting(result), hub.total_requests())
            # Scoped phase accounting must cover every request issued.
            assert sum(r.requests for r in result.phase_reports) == hub.total_requests()
        assert reports[1] == reports[8]

    def test_identical_under_fault_injection(self, world, manuscript):
        runs = {}
        for workers in WORKER_COUNTS:
            hub = ScholarlyHub.deploy(world, behaviour=FLAKY_BEHAVIOUR, fault_seed=7)
            result = Minaret(hub, config=PipelineConfig(workers=workers)).recommend(
                manuscript
            )
            faults = sum(stats.faults for stats in hub.http.stats.values())
            runs[workers] = (
                _signature(result),
                hub.total_requests(),
                faults,
                hub.crawler.retries,
            )
        baseline = runs[WORKER_COUNTS[0]]
        assert baseline[2] > 0, "sanity: faults were actually injected"
        assert baseline[3] > 0, "sanity: the crawler actually retried"
        for workers in WORKER_COUNTS[1:]:
            assert runs[workers] == baseline


class TestBatchDeterminism:
    def test_batch_recommend_identical_across_worker_counts(self, world):
        entries = _batch_entries(world)
        runs = {}
        for workers in WORKER_COUNTS:
            hub = ScholarlyHub.deploy(world)
            minaret = Minaret(hub)
            results = recommend_batch(minaret, entries, workers=workers)
            runs[workers] = [
                (paper_id, _signature(result)) for paper_id, result in results
            ]
        baseline = runs[WORKER_COUNTS[0]]
        assert all(signature for _, signature in baseline)
        for workers in WORKER_COUNTS[1:]:
            assert runs[workers] == baseline

    def test_batch_under_faults_with_nested_extraction_workers(self, world):
        # Batch fan-out above, extraction fan-out below, faults injected:
        # the worst case for interleaving still reproduces sequential.
        entries = _batch_entries(world)
        runs = {}
        for workers in (1, 4):
            hub = ScholarlyHub.deploy(world, behaviour=FLAKY_BEHAVIOUR, fault_seed=3)
            minaret = Minaret(hub, config=PipelineConfig(workers=2))
            results = recommend_batch(minaret, entries, workers=workers)
            runs[workers] = (
                [(paper_id, _signature(result)) for paper_id, result in results],
                hub.total_requests(),
            )
        assert runs[4] == runs[1]

    def test_api_assign_identical_across_worker_counts(self, world):
        from repro.api.handlers import MinaretApi

        entries = _batch_entries(world)
        body = {
            "manuscripts": [
                {
                    "paper_id": paper_id,
                    "manuscript": {
                        "title": manuscript.title,
                        "keywords": list(manuscript.keywords),
                        "authors": [
                            {
                                "name": a.name,
                                "affiliation": a.affiliation,
                                "country": a.country,
                            }
                            for a in manuscript.authors
                        ],
                        "target_venue": manuscript.target_venue,
                    },
                }
                for paper_id, manuscript in entries
            ],
        }
        responses = {}
        for workers in (1, 8):
            api = MinaretApi(ScholarlyHub.deploy(world))
            response = api.handle(
                "POST", "/api/v1/assign", {**body, "workers": workers}
            )
            assert response.ok
            responses[workers] = response.body
        assert responses[8] == responses[1]
        assert responses[1]["assignments"]

    def test_api_assign_rejects_bad_workers(self, world):
        from repro.api.handlers import MinaretApi

        api = MinaretApi(ScholarlyHub.deploy(world))
        response = api.handle(
            "POST",
            "/api/v1/assign",
            {"manuscripts": [{"paper_id": "p", "manuscript": {}}], "workers": 0},
        )
        assert response.status == 400

    def test_batch_phase_reports_not_cross_polluted(self, world):
        # Concurrent pipelines share one hub; scoped accounting must
        # attribute each run's requests to its own phase reports.
        entries = _batch_entries(world)
        hub_seq = ScholarlyHub.deploy(world)
        sequential = recommend_batch(Minaret(hub_seq), entries, workers=1)
        hub_par = ScholarlyHub.deploy(world)
        parallel = recommend_batch(Minaret(hub_par), entries, workers=8)
        for (_, seq_result), (_, par_result) in zip(sequential, parallel):
            assert _request_accounting(par_result) == _request_accounting(seq_result)
        assert hub_par.total_requests() == hub_seq.total_requests()

    def test_warm_batch_phase_totals_identical_across_worker_counts(self, world):
        # On the warm path a load two papers need at once is billed to
        # the paper whose worker led it, so one paper's reports may
        # differ between runs; each phase's totals over the batch may not.
        entries = generate_conference(
            world, ConferenceConfig(paper_count=12, seed=1)
        ).entries()
        runs = {}
        for workers in WORKER_COUNTS:
            hub = ScholarlyHub.deploy(world)
            minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
            totals = {}
            for _, result in recommend_batch(minaret, entries, workers=workers):
                for report in result.phase_reports:
                    requests, nanoseconds = totals.get(report.phase, (0, 0))
                    totals[report.phase] = (
                        requests + report.requests,
                        nanoseconds + round(report.virtual_seconds * 1e9),
                    )
            runs[workers] = (totals, hub.total_requests())
        baseline = runs[WORKER_COUNTS[0]]
        assert baseline[0]["extract_candidates"][0] > 0
        assert sum(requests for requests, __ in baseline[0].values()) == baseline[1]
        for workers in WORKER_COUNTS[1:]:
            assert runs[workers] == baseline

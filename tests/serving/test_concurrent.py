"""Concurrent dispatch through the admission queue.

The serving invariant under test: worker counts and thread interleaving
decide *when* work happens, never *what* any admitted request answers —
and admission arithmetic on the virtual clock is deterministic even
when submissions race from many threads.
"""

import threading

import pytest

from repro.api.handlers import MinaretApi
from repro.scholarly.registry import ScholarlyHub
from repro.serving import (
    Burst,
    LoadGenerator,
    RequestTemplate,
    ServingConfig,
    ServingFrontend,
    TenantPolicy,
    canonical_body,
    latency_summary,
    manuscript_templates,
    run_load,
)
from repro.serving.harness import _quantile
from tests.serving.conftest import queue_depth


def _requests(world):
    """A mixed batch of real requests with deterministic payloads."""
    templates = manuscript_templates(world, count=3)
    batch = [(t.method, t.path, t.body) for t in templates]
    keywords = templates[0].body["manuscript"]["keywords"]
    # Two expand variants; /health would embed live SLO state, so it
    # is deliberately absent from the bit-identity batch.
    batch.append(("POST", "/api/v1/expand", {"keywords": keywords}))
    batch.append(
        ("POST", "/api/v1/expand", {"keywords": keywords, "max_depth": 1})
    )
    return batch


def _fresh_frontend(world, **overrides):
    defaults = dict(
        queue_capacity=32,
        default_policy=TenantPolicy(capacity=64, refill_rate=10.0),
        degraded_serving=False,
    )
    defaults.update(overrides)
    api = MinaretApi(ScholarlyHub.deploy(world))
    return ServingFrontend(api, ServingConfig(**defaults))


class TestWorkerCountInvariance:
    def test_bodies_bit_identical_at_1_2_8_workers(self, world):
        batch = _requests(world)
        # Unthrottled sequential dispatch straight through the API.
        reference_api = MinaretApi(ScholarlyHub.deploy(world))
        reference = [
            canonical_body(reference_api.handle(m, p, b).body) for m, p, b in batch
        ]
        for workers in (1, 2, 8):
            front = _fresh_frontend(world)
            admissions = [front.submit(m, p, b) for m, p, b in batch]
            assert all(a.admitted for a in admissions)
            front.drain(workers=workers)
            bodies = [canonical_body(a.response.body) for a in admissions]
            assert bodies == reference, f"workers={workers} diverged"

    def test_drain_statuses_all_ok(self, world):
        front = _fresh_frontend(world)
        for method, path, body in _requests(world):
            front.submit(method, path, body)
        served = front.drain(workers=8)
        assert [a.status for a in served] == [200] * len(served)


class TestConcurrentSubmission:
    N_THREADS = 32

    def _storm(self, front):
        """All threads submit one request at the same virtual instant."""
        results = [None] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS)

        def client(i):
            barrier.wait()
            results[i] = front.submit("GET", "/api/v1/health", tenant="storm")

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def test_admit_and_shed_counts_are_exact(self, world):
        front = _fresh_frontend(
            world,
            queue_capacity=16,
            default_policy=TenantPolicy(capacity=10, refill_rate=1.0),
        )
        results = self._storm(front)
        admitted = [r for r in results if r.admitted]
        shed = [r for r in results if not r.admitted]
        # No virtual time passes during the storm, so exactly
        # `capacity` tokens exist: 10 admits, 22 rate-limited sheds —
        # regardless of thread interleaving.
        assert len(admitted) == 10
        assert len(shed) == 22
        assert {r.reason for r in shed} == {"rate_limited"}
        assert all(r.status == 429 for r in shed)
        assert front.queue_depth == 10
        front.drain(workers=4)
        assert front.stats()["served"] == 10

    def test_queue_bound_holds_under_races(self, world):
        front = _fresh_frontend(
            world,
            queue_capacity=5,
            default_policy=TenantPolicy(capacity=1000.0, refill_rate=1.0),
        )
        results = self._storm(front)
        admitted = [r for r in results if r.admitted]
        shed = [r for r in results if not r.admitted]
        assert len(admitted) == 5
        assert front.queue_depth == 5
        assert {r.reason for r in shed} == {"queue_full"}
        assert all(r.status == 503 for r in shed)
        # The depth gauge is published under the queue lock, so after
        # the storm settles it agrees with the queue exactly.
        assert queue_depth(front.obs.metrics) == 5
        # queue_full sheds refund their token: only the 5 admits spent
        # budget out of the 1000-token burst.
        assert front._bucket_for("storm").available() == pytest.approx(995.0)

    def test_storm_outcome_is_repeatable(self, world):
        outcomes = []
        for _ in range(2):
            front = _fresh_frontend(
                world,
                queue_capacity=16,
                default_policy=TenantPolicy(capacity=10, refill_rate=1.0),
            )
            results = self._storm(front)
            outcomes.append(sum(1 for r in results if r.admitted))
        assert outcomes[0] == outcomes[1] == 10


class TestHandleDrainRace:
    def test_handle_always_returns_a_response(self, world):
        # Regression: a racing drain() could take handle()'s admission
        # out of the queue before handle()'s own drain ran, so handle()
        # returned None while the other thread was still dispatching.
        # handle() now waits on the admission's done event.
        front = _fresh_frontend(
            world,
            queue_capacity=64,
            default_policy=TenantPolicy(capacity=1000.0, refill_rate=10.0),
        )
        n_clients = 12
        stop = threading.Event()

        def drainer():
            while not stop.is_set():
                front.drain(workers=2)

        stealer = threading.Thread(target=drainer)
        stealer.start()
        try:
            responses = [None] * n_clients
            barrier = threading.Barrier(n_clients)

            def client(i):
                barrier.wait()
                responses[i] = front.handle("GET", "/api/v1/health", tenant="race")

            clients = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join()
        finally:
            stop.set()
            stealer.join()
        assert all(r is not None for r in responses)
        assert [r.status for r in responses] == [200] * n_clients


class TestHarnessRuns:
    def test_load_report_is_deterministic(self, world):
        gen = LoadGenerator(
            (RequestTemplate("GET", "/api/v1/health"),),
            rate=20.0,
            seed=13,
        )
        arrivals = gen.arrivals(count=60)
        reports = []
        for _ in range(2):
            front = _fresh_frontend(
                world,
                queue_capacity=4,
                default_policy=TenantPolicy(capacity=5, refill_rate=2.0),
            )
            reports.append(run_load(front, arrivals, workers=2).to_dict())
        # Strip the SLO status: its `at` field reads the engine clock.
        for report in reports:
            report.pop("slo", None)
        assert reports[0] == reports[1]

    def test_burst_sheds_with_honored_retry_after(self, world):
        front = _fresh_frontend(
            world,
            queue_capacity=8,
            default_policy=TenantPolicy(capacity=3, refill_rate=1.0),
        )
        gen = LoadGenerator(
            (RequestTemplate("GET", "/api/v1/health"),),
            rate=2.0,
            seed=13,
            bursts=(Burst(5.0, 5.0, 10.0),),
        )
        report = run_load(front, gen.arrivals(duration=15.0), workers=2)
        sheds = [
            r
            for r in report.records
            if not r.admitted and r.reason == "rate_limited"
        ]
        assert sheds, "the 10x burst must overrun a 3-token bucket"
        # Every shed's retry_after is the bucket's own refill bound:
        # waiting exactly that long at 1 token/s must yield a token.
        for shed in sheds:
            assert shed.retry_after is not None
            assert shed.retry_after <= 1.0 + 1e-6
        first_shed_index = report.records.index(sheds[0])
        served_before = [
            r for r in report.records[:first_shed_index] if r.admitted
        ]
        assert served_before, "capacity served fine before the burst"

    def test_workers_speed_up_served_latency(self, world):
        gen = LoadGenerator(
            (RequestTemplate("GET", "/api/v1/health"),),
            rate=50.0,
            seed=21,
        )
        arrivals = gen.arrivals(count=40)
        latencies = {}
        for workers in (1, 8):
            front = _fresh_frontend(
                world,
                queue_capacity=64,
                default_policy=TenantPolicy(capacity=64, refill_rate=1.0),
            )
            report = run_load(front, arrivals, workers=workers)
            assert report.served == 40
            latencies[workers] = report.latency["p95"]
        assert latencies[8] <= latencies[1]


class TestRetryAfterContract:
    def test_retry_after_bound_admits_on_virtual_clock(self, world):
        front = _fresh_frontend(
            world,
            default_policy=TenantPolicy(capacity=2, refill_rate=0.25),
        )
        front.submit("GET", "/api/v1/health")
        front.submit("GET", "/api/v1/health")
        shed = front.submit("GET", "/api/v1/health")
        assert shed.status == 429
        assert shed.retry_after == pytest.approx(4.0)
        front.clock.advance(shed.retry_after / 2)
        assert front.submit("GET", "/api/v1/health").status == 429
        front.clock.advance(shed.retry_after / 2)
        assert front.submit("GET", "/api/v1/health").admitted


class TestLatencySummary:
    def test_empty_sample_reads_zero(self):
        assert latency_summary([]) == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "mean": 0.0,
            "max": 0.0,
        }

    def test_single_value_is_every_quantile(self):
        summary = latency_summary([0.25])
        assert set(summary.values()) == {0.25}

    def test_nearest_rank_over_unsorted_input(self):
        # 101 values 0..100 in reverse: rank q*(n-1) lands on q*100.
        summary = latency_summary([float(v) for v in range(100, -1, -1)])
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.0)

    @pytest.mark.parametrize(
        ("q", "expected"),
        [(0.0, 1.0), (0.5, 3.0), (1.0, 5.0)],
        ids=["min", "median", "max"],
    )
    def test_quantile_is_nearest_rank(self, q, expected):
        assert _quantile([1.0, 2.0, 3.0, 4.0, 5.0], q) == expected

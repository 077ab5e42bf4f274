"""Stress tests: shared simulated-web state under real thread contention.

Each test hammers one component from 16 threads through a barrier (so
all threads contend at once) and checks *exact* counts afterwards — a
lost update anywhere shows up as an off-by-N.
"""

import sys
import threading

import pytest

from repro.concurrency import create_executor
from repro.obs import Observability, RequestLedger, use
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock
from repro.web.crawler import Crawler
from repro.web.http import LatencyModel, NotFoundError, SimulatedHttpClient
from repro.web.ratelimit import TokenBucket

THREADS = 16


def _hammer(worker):
    """Run ``worker(thread_index)`` on THREADS threads, all released at once."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestClock:
    def test_concurrent_advances_all_land(self):
        clock = SimulatedClock()
        _hammer(lambda i: [clock.advance(0.001) for __ in range(100)])
        assert clock.now() == pytest.approx(THREADS * 100 * 0.001)


class TestTokenBucket:
    def test_no_overdraw(self):
        clock = SimulatedClock()
        # Vanishing refill rate + frozen clock: exactly `capacity` tokens
        # exist, ever.
        bucket = TokenBucket(capacity=50, refill_rate=1e-9, clock=clock)
        taken = [0] * THREADS

        def worker(i):
            for __ in range(20):
                if bucket.try_acquire():
                    taken[i] += 1

        _hammer(worker)
        assert sum(taken) == 50
        assert bucket.available() < 1.0


class TestTTLCache:
    def test_capacity_respected_and_values_correct(self):
        clock = SimulatedClock()
        cache = TTLCache(ttl=None, capacity=32, clock=clock)

        def worker(i):
            for k in range(100):
                key = f"{i}:{k}"
                cache.put(key, (i, k))
                hit = cache.get(key)
                # Eviction may have removed it, but never corrupted it.
                assert hit is None or hit == (i, k)

        _hammer(worker)
        assert len(cache) <= 32

    def test_concurrent_same_key_puts_keep_one_value(self):
        clock = SimulatedClock()
        cache = TTLCache(ttl=None, capacity=8, clock=clock)
        _hammer(lambda i: [cache.put("shared", i) for __ in range(200)])
        assert cache.get("shared") in range(THREADS)
        assert len(cache) == 1


class TestHttpClient:
    def _client(self, trace_capacity=0):
        clock = SimulatedClock()
        http = SimulatedHttpClient(clock, trace_capacity=trace_capacity)
        http.register_host(
            "h",
            lambda req: {"q": req.param("q")},
            latency=LatencyModel(base=0.001, jitter=0.0),
        )
        return http

    def test_request_count_exact_under_contention(self):
        http = self._client()
        _hammer(lambda i: [http.get("h", "/p", {"q": f"{i}:{k}"}) for k in range(50)])
        assert http.total_requests() == THREADS * 50
        assert http.stats["h"].requests == THREADS * 50
        assert http.total_latency() == pytest.approx(THREADS * 50 * 0.001)

    def test_trace_ring_exact_under_contention(self):
        http = self._client(trace_capacity=64)
        _hammer(lambda i: [http.get("h", "/p", {"q": f"{i}:{k}"}) for k in range(50)])
        traces = http.traces()
        assert len(traces) == 64
        # Every retained trace is an internally consistent record.
        for trace in traces:
            assert trace.host == "h"
            assert trace.status == 200
            assert trace.latency == pytest.approx(0.001)


class TestRequestLedger:
    def test_bill_exact_under_contention(self):
        # Every phase's pool threads charge one ledger; a lost update
        # would show in the phase report's requests or virtual time.
        http = SimulatedHttpClient(SimulatedClock())
        http.register_host("h", lambda req: {}, latency=LatencyModel(base=0.001, jitter=0.0))
        barrier = threading.Barrier(THREADS)

        def work(index):
            barrier.wait(timeout=10)
            for k in range(50):
                http.get("h", "/p", {"q": f"{index}:{k}"})
                http.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RequestLedger() as ledger:
                create_executor(THREADS).map(work, range(THREADS))
        finally:
            sys.setswitchinterval(interval)
        assert ledger.requests == THREADS * 50
        assert ledger.to_dict()["wait_seconds"] == 1.6
        assert ledger.virtual_seconds == 2.4


class TestTelemetryUnderContention:
    def test_per_map_and_per_attempt_writes_exact(self):
        # Nested fan-outs write the executor metrics once per map and
        # the HTTP metrics once per attempt; a lost update in a task's
        # slot, the registry or the host stats shows as an off-by-N.
        obs = Observability()
        http = SimulatedHttpClient(SimulatedClock())

        def endpoint(request):
            if request.param("k") % 5 == 0:
                raise NotFoundError(request)
            return {}

        http.register_host("h", endpoint, latency=LatencyModel(base=0.001, jitter=0.0))

        def attempt(item):
            index, k = item
            try:
                http.get("h", "/p", {"i": index, "k": k})
            except NotFoundError:
                pass

        def work(index):
            create_executor(4).map(attempt, [(index, k) for k in range(50)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use(obs):
                create_executor(THREADS).map(work, range(THREADS))
        finally:
            sys.setswitchinterval(interval)
        metrics = obs.metrics
        tasks = THREADS + THREADS * 50  # the outer map's and the inner maps'
        assert metrics.counter_value(
            "executor_tasks_total", backend="thread", outcome="ok"
        ) == tasks
        for name in ("executor_queue_seconds", "executor_task_seconds"):
            assert metrics.histogram_stats(name, backend="thread")["count"] == tasks
        maps = obs.tracer.finished("executor.map")
        assert len(maps) == THREADS + 1
        assert sum(span.labels["tasks"] for span in maps) == tasks
        attempts = THREADS * 50
        assert http.stats["h"].requests == attempts
        assert http.stats["h"].not_found == attempts // 5
        assert metrics.counter_value("http_requests_total", host="h", status=404) == (
            attempts // 5
        )
        assert metrics.counter_total("http_requests_total") == attempts
        assert metrics.histogram_stats(
            "http_request_latency_seconds", host="h"
        )["count"] == attempts


class TestCrawler:
    def test_fetch_counters_exact(self):
        http = self._make_http()
        crawler = Crawler(http)
        _hammer(lambda i: [crawler.fetch("h", "/p", {"q": f"{i}:{k}"}) for k in range(25)])
        assert crawler.fetches == THREADS * 25
        assert http.total_requests() == THREADS * 25

    def test_cache_hits_counted_exactly(self):
        http = self._make_http()
        clock = http.clock
        cache = TTLCache(ttl=None, capacity=1024, clock=clock)
        crawler = Crawler(http, cache=cache)
        crawler.fetch("h", "/p", {"q": "warm"})  # populate once
        _hammer(lambda i: [crawler.fetch("h", "/p", {"q": "warm"}) for __ in range(25)])
        assert crawler.cache_hits == THREADS * 25
        assert http.total_requests() == 1

    @staticmethod
    def _make_http():
        clock = SimulatedClock()
        http = SimulatedHttpClient(clock)
        http.register_host(
            "h",
            lambda req: {"q": req.param("q")},
            latency=LatencyModel(base=0.0, jitter=0.0),
        )
        return http

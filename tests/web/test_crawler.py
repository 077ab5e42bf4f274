"""Unit tests for the retrying, caching crawler."""

import pytest

from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock
from repro.web.crawler import Crawler, CrawlError, RetryPolicy
from repro.web.faults import FaultPolicy
from repro.web.http import (
    HttpRequest,
    LatencyModel,
    NotFoundError,
    SimulatedHttpClient,
)
from repro.web.ratelimit import TokenBucket


@pytest.fixture()
def clock():
    return SimulatedClock()


def make_client(clock, faults=None, bucket=None, handler=None):
    http = SimulatedHttpClient(clock)
    http.register_host(
        "svc",
        handler or (lambda req: {"ok": True}),
        latency=LatencyModel(base=0.01, jitter=0.0),
        faults=faults,
        rate_limit=bucket,
    )
    return http


class TestRetryPolicy:
    def test_backoff_doubles(self):
        policy = RetryPolicy(base_backoff=0.1, max_backoff=10.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_backoff_capped(self):
        policy = RetryPolicy(base_backoff=1.0, max_backoff=2.0)
        assert policy.backoff_for(10) == 2.0

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=5.0, max_backoff=1.0)


class TestFetch:
    def test_success(self, clock):
        crawler = Crawler(make_client(clock))
        assert crawler.fetch("svc", "/p").payload == {"ok": True}

    def test_retries_transient_faults(self, clock):
        # Fail the 1st request, succeed on retry.
        faults = FaultPolicy(burst_every=1, burst_length=1)
        # burst_every=1 makes every request fail; instead fail only first:
        client = make_client(clock, faults=FaultPolicy(burst_every=3))
        crawler = Crawler(client, retry=RetryPolicy(max_attempts=3, base_backoff=0.01))
        for __ in range(4):
            assert crawler.fetch("svc", "/p").ok
        assert crawler.retries >= 1

    def test_gives_up_after_max_attempts(self, clock):
        client = make_client(clock, faults=FaultPolicy(failure_probability=1.0))
        crawler = Crawler(client, retry=RetryPolicy(max_attempts=2, base_backoff=0.01))
        with pytest.raises(CrawlError) as exc_info:
            crawler.fetch("svc", "/p")
        assert exc_info.value.attempts == 2

    def test_backoff_advances_clock(self, clock):
        client = make_client(clock, faults=FaultPolicy(failure_probability=1.0))
        crawler = Crawler(client, retry=RetryPolicy(max_attempts=3, base_backoff=1.0))
        with pytest.raises(CrawlError):
            crawler.fetch("svc", "/p")
        # 3 latencies (0.01 each) + backoffs 1.0 + 2.0.
        assert clock.now() == pytest.approx(3.03)

    def test_rate_limit_waits_and_recovers(self, clock):
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        client = make_client(clock, bucket=bucket)
        crawler = Crawler(client, retry=RetryPolicy(max_attempts=3, base_backoff=0.01))
        assert crawler.fetch("svc", "/a").ok
        assert crawler.fetch("svc", "/b").ok  # waits for refill internally
        assert client.stats["svc"].rate_limited == 1

    def test_404_not_retried(self, clock):
        def handler(req):
            raise KeyError("gone")

        client = make_client(clock, handler=handler)
        crawler = Crawler(client)
        with pytest.raises(NotFoundError):
            crawler.fetch("svc", "/p")
        assert client.stats["svc"].requests == 1

    def test_fetch_or_none_maps_404(self, clock):
        def handler(req):
            raise KeyError("gone")

        crawler = Crawler(make_client(clock, handler=handler))
        assert crawler.fetch_or_none("svc", "/p") is None


class TestCaching:
    def test_cache_hit_skips_network(self, clock):
        client = make_client(clock)
        cache = TTLCache(ttl=60.0, capacity=10, clock=clock)
        crawler = Crawler(client, cache=cache)
        crawler.fetch("svc", "/p", {"q": 1})
        response = crawler.fetch("svc", "/p", {"q": 1})
        assert response.from_cache
        assert client.stats["svc"].requests == 1
        assert crawler.cache_hit_rate() == 0.5

    def test_different_params_miss(self, clock):
        client = make_client(clock)
        cache = TTLCache(ttl=60.0, capacity=10, clock=clock)
        crawler = Crawler(client, cache=cache)
        crawler.fetch("svc", "/p", {"q": 1})
        crawler.fetch("svc", "/p", {"q": 2})
        assert client.stats["svc"].requests == 2

    def test_expired_entry_refetched(self, clock):
        client = make_client(clock)
        cache = TTLCache(ttl=1.0, capacity=10, clock=clock)
        crawler = Crawler(client, cache=cache)
        crawler.fetch("svc", "/p")
        clock.advance(2.0)
        crawler.fetch("svc", "/p")
        assert client.stats["svc"].requests == 2

    def test_ttl_zero_is_pure_on_the_fly(self, clock):
        client = make_client(clock)
        cache = TTLCache(ttl=0, capacity=10, clock=clock)
        crawler = Crawler(client, cache=cache)
        crawler.fetch("svc", "/p")
        crawler.fetch("svc", "/p")
        assert client.stats["svc"].requests == 2
        assert crawler.cache_hits == 0

    def test_no_cache_configured(self, clock):
        crawler = Crawler(make_client(clock))
        crawler.fetch("svc", "/p")
        assert crawler.cache_hit_rate() == 0.0


class TestRequestBuiltOnce:
    """One request object per fetch keys the cache and every attempt."""

    def test_every_attempt_carries_the_fetch_request(self, clock, monkeypatch):
        client = make_client(clock, faults=FaultPolicy(failure_probability=1.0))
        seen = []
        get = client.get

        def spy(*args, **kwargs):
            seen.append(kwargs["request"])
            return get(*args, **kwargs)

        monkeypatch.setattr(client, "get", spy)
        created = []
        create = HttpRequest.create.__func__

        def counting_create(cls, *args, **kwargs):
            created.append(args)
            return create(cls, *args, **kwargs)

        monkeypatch.setattr(HttpRequest, "create", classmethod(counting_create))
        cache = TTLCache(ttl=0, capacity=10, clock=clock)
        crawler = Crawler(
            client, retry=RetryPolicy(max_attempts=3, base_backoff=0.01), cache=cache
        )
        with pytest.raises(CrawlError):
            crawler.fetch("svc", "/p", {"q": 1})
        assert len(seen) == 3
        assert all(request is seen[0] for request in seen)
        assert seen[0] == HttpRequest("svc", "/p", (("q", 1),))
        assert len(created) == 1
        assert cache.stats()["misses"] == 1
        assert client.stats["svc"].requests == 3

"""Unit tests for the simulated HTTP client and fault injection."""

import pytest

from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
from repro.web.http import (
    HttpRequest,
    LatencyModel,
    NotFoundError,
    RateLimitedError,
    ServiceUnavailableError,
    SimulatedHttpClient,
)
from repro.web.ratelimit import TokenBucket


@pytest.fixture()
def clock():
    return SimulatedClock()


@pytest.fixture()
def client(clock):
    http = SimulatedHttpClient(clock)
    http.register_host(
        "fast.example",
        lambda req: {"echo": req.param("q")},
        latency=LatencyModel(base=0.01, jitter=0.0),
    )
    return http


class TestFaultPolicy:
    def test_never_fails(self):
        policy = FaultPolicy.never()
        assert not any(policy.decide(o) for o in range(1, 101))

    def test_burst_schedule(self):
        policy = FaultPolicy(burst_every=3, burst_length=2)
        outcomes = [policy.decide(o) for o in range(1, 9)]
        assert outcomes == [False, False, True, True, False, True, True, False]

    def test_probabilistic_deterministic_per_seed(self):
        a = [FaultPolicy(failure_probability=0.5, seed=1).decide(o) for o in range(1, 21)]
        b = [FaultPolicy(failure_probability=0.5, seed=1).decide(o) for o in range(1, 21)]
        assert a == b

    def test_probability_one_always_fails(self):
        policy = FaultPolicy(failure_probability=1.0)
        assert all(policy.decide(o) for o in range(1, 11))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(failure_probability=1.5)

    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(burst_every=0)


class TestRequest:
    def test_params_normalized(self):
        a = HttpRequest.create("h", "/p", {"b": 2, "a": 1})
        b = HttpRequest.create("h", "/p", {"a": 1, "b": 2})
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_param_lookup(self):
        request = HttpRequest.create("h", "/p", {"q": "x"})
        assert request.param("q") == "x"
        assert request.param("missing", "d") == "d"


class TestDispatch:
    def test_successful_get(self, client):
        response = client.get("fast.example", "/any", {"q": "hello"})
        assert response.ok
        assert response.payload == {"echo": "hello"}
        assert response.latency == pytest.approx(0.01)

    def test_latency_advances_clock(self, client, clock):
        client.get("fast.example", "/any")
        assert clock.now() == pytest.approx(0.01)

    def test_unknown_host_404(self, client):
        with pytest.raises(NotFoundError):
            client.get("nowhere.example", "/any")

    def test_handler_keyerror_becomes_404(self, clock):
        http = SimulatedHttpClient(clock)
        http.register_host("h", lambda req: {"x": {}["missing"]})
        with pytest.raises(NotFoundError):
            http.get("h", "/p")

    def test_duplicate_host_rejected(self, client):
        with pytest.raises(ValueError):
            client.register_host("fast.example", lambda req: {})

    def test_hosts_listing(self, client):
        assert client.hosts() == ["fast.example"]


class TestRateLimiting:
    def test_429_when_bucket_empty(self, clock):
        http = SimulatedHttpClient(clock)
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        http.register_host(
            "limited", lambda req: {}, rate_limit=bucket,
            latency=LatencyModel(base=0.0, jitter=0.0),
        )
        http.get("limited", "/p")
        with pytest.raises(RateLimitedError) as exc_info:
            http.get("limited", "/p")
        assert exc_info.value.retry_after > 0
        assert http.stats["limited"].rate_limited == 1

    def test_recovers_after_refill(self, clock):
        http = SimulatedHttpClient(clock)
        bucket = TokenBucket(capacity=1, refill_rate=1.0, clock=clock)
        http.register_host(
            "limited", lambda req: {"ok": True}, rate_limit=bucket,
            latency=LatencyModel(base=0.0, jitter=0.0),
        )
        http.get("limited", "/p")
        clock.advance(1.0)
        assert http.get("limited", "/p").ok


class TestFaults:
    def test_injected_503(self, clock):
        http = SimulatedHttpClient(clock)
        http.register_host(
            "flaky", lambda req: {}, faults=FaultPolicy(burst_every=1)
        )
        with pytest.raises(ServiceUnavailableError):
            http.get("flaky", "/p")
        assert http.stats["flaky"].faults == 1


class TestStats:
    def test_counters(self, client):
        client.get("fast.example", "/a")
        client.get("fast.example", "/b")
        stats = client.stats["fast.example"]
        assert stats.requests == 2
        assert stats.total_latency == pytest.approx(0.02)
        assert client.total_requests() == 2
        assert client.total_latency() == pytest.approx(0.02)

    def test_reset(self, client):
        client.get("fast.example", "/a")
        client.reset_stats()
        assert client.total_requests() == 0


class TestLatencyModel:
    def test_no_jitter_is_constant(self):
        model = LatencyModel(base=0.5, jitter=0.0)
        assert {model.sample(o) for o in range(1, 6)} == {0.5}

    def test_jitter_within_bounds(self):
        model = LatencyModel(base=0.1, jitter=0.2, seed=3)
        for o in range(1, 101):
            sample = model.sample(o)
            assert 0.1 <= sample <= 0.3

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base=-0.1)

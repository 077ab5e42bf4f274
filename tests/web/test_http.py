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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"failure_probability": -0.01},
            {"burst_every": -2},
            {"burst_length": 0},
            {"burst_length": -1},
        ],
        ids=[
            "probability-negative",
            "burst_every-negative",
            "burst_length-zero",
            "burst_length-negative",
        ],
    )
    def test_out_of_range_parameter_rejected(self, overrides):
        with pytest.raises(ValueError):
            FaultPolicy(**overrides)

    def test_seed_exposed(self):
        assert FaultPolicy(seed=7).seed == 7
        assert FaultPolicy.never().seed == 0

    def test_bursts_override_probability_zero_only_on_schedule(self):
        policy = FaultPolicy(failure_probability=0.0, burst_every=4, burst_length=1)
        failing = [o for o in range(1, 13) if policy.decide(o)]
        assert failing == [4, 8, 12]


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


class TestHostManagement:
    def test_replace_endpoint_changes_answers_only(self, client):
        first = client.get("fast.example", "/any", {"q": "x"})
        client.replace_endpoint("fast.example", lambda req: {"new": True})
        second = client.get("fast.example", "/any", {"q": "x"})
        assert first.payload == {"echo": "x"}
        assert second.payload == {"new": True}
        assert second.latency == first.latency
        assert client.stats["fast.example"].requests == 2

    def test_replace_endpoint_on_unknown_host_rejected(self, client):
        with pytest.raises(ValueError, match="not registered"):
            client.replace_endpoint("nowhere.example", lambda req: {})

    def test_set_fault_policy_on_unknown_host_rejected(self, client):
        with pytest.raises(ValueError, match="not registered"):
            client.set_fault_policy("nowhere.example", FaultPolicy.never())

    def test_set_fault_policy_changes_future_requests(self, client):
        assert client.get("fast.example", "/any").ok
        client.set_fault_policy("fast.example", FaultPolicy(failure_probability=1.0))
        with pytest.raises(ServiceUnavailableError):
            client.get("fast.example", "/any")
        client.set_fault_policy("fast.example", FaultPolicy.never())
        assert client.get("fast.example", "/any").ok
        assert client.stats["fast.example"].requests == 3

    def test_negative_wall_latency_scale_rejected(self, clock):
        with pytest.raises(ValueError, match="wall_latency_scale"):
            SimulatedHttpClient(clock, wall_latency_scale=-0.5)

    def test_clock_exposed(self, client, clock):
        assert client.clock is clock


class TestTracingControls:
    def test_off_by_default(self, client):
        client.get("fast.example", "/any")
        assert not client.tracing_enabled
        assert client.trace_capacity == 0
        assert client.traces() == []

    def test_enable_tracing_records_later_requests(self, client):
        client.get("fast.example", "/before")
        client.enable_tracing(capacity=4)
        client.get("fast.example", "/after")
        assert client.tracing_enabled
        assert client.trace_capacity == 4
        assert [trace.path for trace in client.traces()] == ["/after"]

    def test_enable_tracing_keeps_an_active_ring(self, client):
        client.enable_tracing(capacity=2)
        client.get("fast.example", "/one")
        client.enable_tracing(capacity=16)
        assert client.trace_capacity == 2
        assert [trace.path for trace in client.traces()] == ["/one"]

    def test_ring_keeps_the_newest(self, client):
        client.enable_tracing(capacity=2)
        for path in ("/a", "/b", "/c"):
            client.get("fast.example", path)
        assert [trace.path for trace in client.traces()] == ["/b", "/c"]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_rejected(self, client, capacity):
        with pytest.raises(ValueError, match="capacity"):
            client.enable_tracing(capacity=capacity)
        assert not client.tracing_enabled


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


class TestLatencyModel:
    def test_no_jitter_is_constant(self):
        model = LatencyModel(base=0.5, jitter=0.0)
        assert {model.sample(o) for o in range(1, 6)} == {0.5}

    def test_jitter_within_bounds(self):
        model = LatencyModel(base=0.1, jitter=0.2, seed=3)
        for o in range(1, 101):
            sample = model.sample(o)
            assert 0.1 <= sample <= 0.3

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param({"base": -0.1}, id="negative-base"),
            pytest.param({"jitter": -0.1}, id="negative-jitter"),
            pytest.param({"base": float("nan")}, id="nan-base"),
            pytest.param({"jitter": float("nan")}, id="nan-jitter"),
            pytest.param({"base": float("inf")}, id="inf-base"),
            pytest.param({"jitter": float("inf")}, id="inf-jitter"),
        ],
    )
    def test_negative_parameters_rejected(self, params):
        with pytest.raises(ValueError):
            LatencyModel(**params)

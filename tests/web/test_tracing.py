"""Tests for request tracing."""

import pytest

from repro.api.handlers import MinaretApi
from repro.scholarly.registry import ScholarlyHub
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
from repro.web.http import LatencyModel, NotFoundError, SimulatedHttpClient


@pytest.fixture()
def traced_client():
    clock = SimulatedClock()
    http = SimulatedHttpClient(clock, trace_capacity=5)
    http.register_host(
        "svc",
        lambda req: {"ok": True},
        latency=LatencyModel(base=0.01, jitter=0.0),
    )
    return http


class TestTracing:
    def test_disabled_by_default(self):
        http = SimulatedHttpClient(SimulatedClock())
        http.register_host("svc", lambda req: {})
        http.get("svc", "/p")
        assert http.traces() == []

    def test_successful_requests_traced(self, traced_client):
        traced_client.get("svc", "/a", {"q": 1})
        traced_client.get("svc", "/b")
        traces = traced_client.traces()
        assert [t.path for t in traces] == ["/a", "/b"]
        assert traces[0].status == 200
        assert traces[0].params == (("q", 1),)
        assert traces[0].latency == pytest.approx(0.01)

    def test_virtual_timestamps_monotone(self, traced_client):
        for __ in range(3):
            traced_client.get("svc", "/p")
        timestamps = [t.at for t in traced_client.traces()]
        assert timestamps == sorted(timestamps)

    def test_404_traced(self, traced_client):
        with pytest.raises(NotFoundError):
            traced_client.get("nowhere", "/p")
        # Unknown host raises before stats/tracing; known-host 404s trace.
        def missing(req):
            raise KeyError("x")

        traced_client.register_host("missing", missing)
        with pytest.raises(NotFoundError):
            traced_client.get("missing", "/p")
        assert traced_client.traces()[-1].status == 404

    def test_503_traced(self):
        clock = SimulatedClock()
        http = SimulatedHttpClient(clock, trace_capacity=5)
        http.register_host("flaky", lambda req: {}, faults=FaultPolicy(burst_every=1))
        from repro.web.http import ServiceUnavailableError

        with pytest.raises(ServiceUnavailableError):
            http.get("flaky", "/p")
        assert http.traces()[-1].status == 503

    def test_ring_buffer_caps(self, traced_client):
        for i in range(10):
            traced_client.get("svc", f"/p{i}")
        traces = traced_client.traces()
        assert len(traces) == 5
        assert traces[0].path == "/p5"


class TestHubAndApiIntegration:
    def test_hub_tracing_opt_in(self, world):
        hub = ScholarlyHub.deploy(world, trace_capacity=100)
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        traces = hub.http.traces()
        assert traces
        assert traces[0].host == "dblp.org"

    def test_api_trace_endpoint(self, world):
        hub = ScholarlyHub.deploy(world, trace_capacity=100)
        api = MinaretApi(hub)
        author = next(iter(world.authors.values()))
        hub.dblp.search_author(author.name)
        response = api.handle("GET", "/api/v1/trace")
        assert response.ok
        assert response.body["traces"]
        first = response.body["traces"][0]
        assert first["host"] == "dblp.org"
        assert first["status"] == 200

    def test_api_trace_empty_when_disabled(self, hub):
        api = MinaretApi(hub)
        response = api.handle("GET", "/api/v1/trace")
        assert response.ok
        assert response.body["traces"] == []

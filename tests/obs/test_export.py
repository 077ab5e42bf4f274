"""Prometheus text exposition and the shared deployment metrics payload."""

import pytest

from repro.obs import Observability, deployment_metrics, render_prometheus, use
from repro.obs.metrics import MetricsRegistry
from repro.scholarly.registry import ScholarlyHub


def populated_registry():
    registry = MetricsRegistry()
    registry.declare_histogram("lat", (0.1, 1.0))
    registry.observe("lat", 0.05, host="a")
    registry.observe("lat", 5.0, host="a")
    registry.inc("reqs_total", host="a", status="200")
    registry.gauge_set("depth", 3, queue="q")
    return registry


class TestRenderPrometheus:
    def test_counter_gauge_histogram_sections(self):
        text = render_prometheus(populated_registry().snapshot())
        lines = text.splitlines()
        assert "# TYPE reqs_total counter" in lines
        assert 'reqs_total{host="a",status="200"} 1' in lines
        assert "# TYPE depth gauge" in lines
        assert 'depth{queue="q"} 3' in lines
        assert "# TYPE lat histogram" in lines

    def test_histogram_buckets_cumulative_with_inf(self):
        text = render_prometheus(populated_registry().snapshot())
        lines = text.splitlines()
        assert 'lat_bucket{host="a",le="0.1"} 1' in lines
        assert 'lat_bucket{host="a",le="1.0"} 1' in lines
        assert 'lat_bucket{host="a",le="+Inf"} 2' in lines
        assert 'lat_sum{host="a"} 5.05' in lines
        assert 'lat_count{host="a"} 2' in lines

    def test_ends_with_newline_and_empty_snapshot_is_empty(self):
        assert render_prometheus(populated_registry().snapshot()).endswith("\n")
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("c_total", path='say "hi"\n')
        text = render_prometheus(registry.snapshot())
        assert r'c_total{path="say \"hi\"\n"} 1' in text

    def test_metric_names_sanitised(self):
        registry = MetricsRegistry()
        registry.inc("weird-name.with/slashes")
        text = render_prometheus(registry.snapshot())
        assert "weird_name_with_slashes 1" in text

    def test_deterministic_output(self):
        a = render_prometheus(populated_registry().snapshot())
        b = render_prometheus(populated_registry().snapshot())
        assert a == b


class TestDeploymentMetrics:
    def test_bare_obs_only(self):
        obs = Observability()
        obs.metrics.inc("x_total")
        payload = deployment_metrics(obs)
        assert payload["metrics"]["counters"]["x_total"][0]["value"] == 1.0
        assert payload["http"] == {}
        assert payload["cache"] is None
        assert payload["retrieval"] is None
        assert payload["features"] is None

    def test_full_deployment_payload(self, world):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import Minaret
        from tests.conftest import make_manuscript

        # A positive TTL builds the crawler cache (TTL 0 builds none).
        hub = ScholarlyHub.deploy(world, cache_ttl=3600.0)
        obs = Observability()
        with use(obs):
            minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
            minaret.recommend(
                make_manuscript(world, next(iter(world.authors.values())))
            )
            payload = deployment_metrics(
                obs,
                http=hub.http,
                cache=hub.crawler.cache,
                plane=minaret.plane,
                features=minaret.features,
            )
        assert payload["http"], "per-host stats missing"
        host, row = next(iter(payload["http"].items()))
        assert {"requests", "rate_limited", "faults", "not_found",
                "total_latency"} <= set(row)
        assert payload["cache"]["name"] == "crawler"
        assert payload["cache"]["misses"] > 0
        assert payload["cache"]["hit_rate"] == pytest.approx(
            hub.crawler.cache.hit_rate(), abs=1e-4
        )
        assert payload["retrieval"] is not None
        assert payload["features"]["features_built"] > 0

    def test_hosts_sorted(self, world):
        hub = ScholarlyHub.deploy(world)
        payload = deployment_metrics(Observability(), http=hub.http)
        hosts = list(payload["http"])
        assert hosts == sorted(hosts)

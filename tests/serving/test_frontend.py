"""Tests for the admission-controlled serving front-end."""

import pytest

from repro.api.handlers import MinaretApi
from repro.scholarly.registry import ScholarlyHub
from repro.serving import (
    ServingConfig,
    TenantPolicy,
    canonical_body,
    request_key,
)
from tests.serving.conftest import make_frontend, queue_depth


class TestAdmission:
    def test_admitted_request_matches_direct_dispatch(
        self, world, frontend, recommend_body
    ):
        served = frontend.handle("POST", "/api/v1/recommend", recommend_body)
        assert served.status == 200
        direct = MinaretApi(ScholarlyHub.deploy(world)).handle(
            "POST", "/api/v1/recommend", recommend_body
        )
        assert canonical_body(served.body) == canonical_body(direct.body)

    def test_submit_queues_until_drain(self, frontend):
        admission = frontend.submit("GET", "/api/v1/health")
        assert admission.admitted
        assert admission.response is None
        assert frontend.queue_depth == 1
        frontend.drain()
        assert frontend.queue_depth == 0
        assert admission.status == 200

    def test_fifo_order_preserved(self, frontend):
        first = frontend.submit("GET", "/api/v1/health")
        second = frontend.submit("GET", "/api/v1/sources")
        batch = frontend.drain()
        assert batch == [first, second]
        assert all(a.response is not None for a in batch)

    def test_served_latency_includes_queue_wait(self, frontend):
        admission = frontend.submit("GET", "/api/v1/health")
        frontend.pop_queued()
        frontend.dispatch_one(admission, queue_wait=3.5)
        assert admission.served_latency == pytest.approx(
            3.5 + admission.service_seconds
        )


class TestRateLimiting:
    def test_429_envelope_carries_retry_after(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.5),
            degraded_serving=False,
        )
        assert front.handle("GET", "/api/v1/health").status == 200
        shed = front.handle("GET", "/api/v1/health")
        assert shed.status == 429
        assert shed.body["reason"] == "rate_limited"
        assert shed.body["tenant"] == "default"
        assert shed.body["retry_after"] == pytest.approx(2.0)

    def test_retry_after_is_honored_on_the_virtual_clock(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.5),
            degraded_serving=False,
        )
        front.handle("GET", "/api/v1/health")
        shed = front.handle("GET", "/api/v1/health")
        retry_after = shed.body["retry_after"]
        # Advancing to just before the hint keeps shedding...
        front.clock.advance(retry_after * 0.5)
        assert front.handle("GET", "/api/v1/health").status == 429
        # ...advancing past it admits.  handle() itself consumed some
        # virtual budget above, so re-read the hint from the last shed.
        final = front.submit("GET", "/api/v1/health")
        front.clock.advance(final.retry_after + 1e-6)
        assert front.handle("GET", "/api/v1/health").status == 200

    def test_tenants_are_isolated(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.1),
            degraded_serving=False,
        )
        assert front.handle("GET", "/api/v1/health", tenant="noisy").status == 200
        assert front.handle("GET", "/api/v1/health", tenant="noisy").status == 429
        # The noisy tenant's exhaustion never touches the quiet one.
        assert front.handle("GET", "/api/v1/health", tenant="quiet").status == 200

    def test_per_tenant_policy_override(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.1),
            tenant_policies=(("vip", TenantPolicy(capacity=10, refill_rate=5.0)),),
            degraded_serving=False,
        )
        for _ in range(5):
            assert front.handle("GET", "/api/v1/health", tenant="vip").status == 200


class TestQueueShedding:
    def test_full_queue_sheds_503(self, api):
        front = make_frontend(
            api, queue_capacity=2, shed_retry_after=7.0, degraded_serving=False
        )
        assert front.submit("GET", "/api/v1/health").admitted
        assert front.submit("GET", "/api/v1/health").admitted
        shed = front.submit("GET", "/api/v1/health")
        assert not shed.admitted
        assert shed.status == 503
        assert shed.response.body["reason"] == "queue_full"
        assert shed.response.body["retry_after"] == pytest.approx(7.0)
        assert shed.retry_after == pytest.approx(7.0)

    def test_drain_frees_the_queue(self, api):
        front = make_frontend(api, queue_capacity=1, degraded_serving=False)
        front.submit("GET", "/api/v1/health")
        assert front.submit("GET", "/api/v1/health").status == 503
        front.drain()
        assert front.submit("GET", "/api/v1/health").admitted

    def test_queue_full_shed_refunds_the_token(self, api):
        # Regression: a queue_full shed used to burn a rate-limit token
        # the tenant never got service for, so the retry the 503 hint
        # asked for could land on a spurious 429.
        front = make_frontend(
            api,
            queue_capacity=1,
            default_policy=TenantPolicy(capacity=2, refill_rate=0.001),
            degraded_serving=False,
        )
        assert front.submit("GET", "/api/v1/health").admitted
        assert front.submit("GET", "/api/v1/health").status == 503
        assert front.submit("GET", "/api/v1/health").status == 503
        # Only the admitted request consumed budget (no virtual time
        # passed, so nothing refilled): one token remains.
        assert front._bucket_for("default").available() == pytest.approx(1.0)
        front.drain()
        assert front.submit("GET", "/api/v1/health").admitted


class TestDegradation:
    def _exhaust(self, front, tenant="default"):
        while front._bucket_for(tenant).try_acquire():
            pass

    def test_warm_response_served_degraded(self, api, recommend_body):
        front = make_frontend(api, degraded_top_k=3)
        warm = front.handle("POST", "/api/v1/recommend", recommend_body)
        assert warm.status == 200
        self._exhaust(front)
        degraded = front.handle("POST", "/api/v1/recommend", recommend_body)
        assert degraded.status == 200
        assert degraded.body["degraded"] is True
        assert degraded.body["degraded_reason"] == "rate_limited"
        assert len(degraded.body["recommendations"]) <= 3
        # The surviving prefix is the warm answer's own top-3.
        expected = canonical_body(warm.body)["recommendations"][:3]
        assert degraded.body["recommendations"] == expected

    def test_cold_cache_sheds_instead(self, api, recommend_body):
        front = make_frontend(api)
        self._exhaust(front)
        shed = front.handle("POST", "/api/v1/recommend", recommend_body)
        assert shed.status == 429

    def test_disabled_degradation_always_sheds(self, api, recommend_body):
        front = make_frontend(api, degraded_serving=False)
        front.handle("POST", "/api/v1/recommend", recommend_body)
        self._exhaust(front)
        assert front.handle("POST", "/api/v1/recommend", recommend_body).status == 429

    def test_non_degradable_path_sheds(self, api):
        front = make_frontend(api)
        front.handle("GET", "/api/v1/health")
        self._exhaust(front)
        assert front.handle("GET", "/api/v1/health").status == 429

    def test_degraded_copy_does_not_corrupt_cache(self, api, recommend_body):
        front = make_frontend(api, degraded_top_k=None)
        front.handle("POST", "/api/v1/recommend", recommend_body)
        self._exhaust(front)
        first = front.handle("POST", "/api/v1/recommend", recommend_body)
        first.body["recommendations"].clear()
        first.body["mutated"] = True
        second = front.handle("POST", "/api/v1/recommend", recommend_body)
        assert "mutated" not in second.body
        assert second.body["degraded"] is True

    def test_warm_cache_is_lru_bounded(self, api, recommend_body):
        front = make_frontend(api, warm_capacity=1)
        other_body = {**recommend_body, "top_k": 2}
        front.handle("POST", "/api/v1/recommend", recommend_body)
        front.handle("POST", "/api/v1/recommend", other_body)
        self._exhaust(front)
        # The first key was evicted by the second: no warm fallback.
        assert front.handle("POST", "/api/v1/recommend", recommend_body).status == 429
        # The survivor still degrades.
        assert (
            front.handle("POST", "/api/v1/recommend", other_body).body["degraded"]
            is True
        )


class TestTelemetry:
    def test_counters_and_gauge(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.1),
            degraded_serving=False,
        )
        front.submit("GET", "/api/v1/health")
        front.submit("GET", "/api/v1/health")
        metrics = api.obs.metrics
        assert metrics.counter_value("serving_requests_total", tenant="default") == 2
        assert metrics.counter_value("serving_admitted_total", tenant="default") == 1
        assert (
            metrics.counter_value(
                "serving_shed_total",
                tenant="default",
                reason="rate_limited",
                status="429",
            )
            == 1
        )
        assert queue_depth(metrics) == 1
        front.drain()
        assert queue_depth(metrics) == 0
        assert (
            metrics.counter_value(
                "serving_served_total", tenant="default", status="200"
            )
            == 1
        )

    def test_tenant_denials_are_shed_plus_degraded(self, api, recommend_body):
        """A denied tenant is counted as shed or, when answered warm, degraded."""
        front = make_frontend(api)
        front.handle("POST", "/api/v1/recommend", recommend_body)
        while front._bucket_for("default").try_acquire():
            pass
        assert front.handle("POST", "/api/v1/recommend", recommend_body).status == 200
        assert front.handle("GET", "/api/v1/health").status == 429
        metrics = api.obs.metrics
        assert (
            metrics.counter_value(
                "serving_degraded_total", tenant="default", reason="rate_limited"
            )
            == 1
        )
        assert (
            metrics.counter_value(
                "serving_shed_total", tenant="default", reason="rate_limited", status="429"
            )
            == 1
        )

    def test_latency_histogram_feeds_slo(self, api):
        front = make_frontend(api, slo_threshold=1e9)
        front.handle("GET", "/api/v1/health")
        status = api.obs.slo.status("serving-latency")
        assert status.verdict == "ok"
        assert status.events >= 1

    def test_overload_burns_the_slo(self, api):
        # Long queue waits push served latency over the SLO threshold,
        # so every event is bad and the verdict walks to burning.
        front = make_frontend(api, slo_threshold=1.0)
        for _ in range(3):
            admission = front.submit("GET", "/api/v1/health")
            front.pop_queued()
            front.dispatch_one(admission, queue_wait=10.0)
        assert api.obs.slo.status("serving-latency").verdict == "burning"

    def test_register_slo_false_skips_registration(self, api):
        make_frontend(api, register_slo=False)
        with pytest.raises(KeyError):
            api.obs.slo.status("serving-latency")

    def test_stats_snapshot(self, api):
        front = make_frontend(
            api,
            default_policy=TenantPolicy(capacity=1, refill_rate=0.1),
            degraded_serving=False,
        )
        front.handle("GET", "/api/v1/health", tenant="t1")
        front.handle("GET", "/api/v1/health", tenant="t1")
        stats = front.stats()
        assert stats["submitted"] == 2
        assert stats["served"] == 1
        assert stats["shed"] == {"rate_limited": 1}
        assert stats["queue_capacity"] == 8
        assert set(stats["latency"]) == {"p50", "p95", "p99"}
        tenant = stats["tenants"]["t1"]
        assert tenant["submitted"] == 2
        assert tenant["shed"] == 1
        assert "available_tokens" in tenant


class TestServingRoute:
    def test_disabled_without_frontend(self, api):
        response = api.handle("GET", "/api/v1/serving")
        assert response.ok
        assert response.body == {"enabled": False}

    def test_attached_frontend_reports_stats(self, api):
        front = make_frontend(api)
        front.handle("GET", "/api/v1/health")
        response = api.handle("GET", "/api/v1/serving")
        assert response.ok
        assert response.body["enabled"] is True
        # One /health plus the /serving call itself routed via api.handle
        # directly, which does not pass admission.
        assert response.body["served"] == 1

    def test_metrics_export_includes_serving(self, api):
        make_frontend(api)
        response = api.handle("GET", "/api/v1/metrics")
        assert response.ok
        assert response.body["serving"] is not None
        assert response.body["serving"]["queue_depth"] == 0


class TestCanonicalBody:
    def test_strips_telemetry_attachments(self):
        body = {
            "recommendations": [1, 2],
            "phases": [{"wall_seconds": 0.123}],
            "cost": {"total": 9.9},
        }
        assert canonical_body(body) == {"recommendations": [1, 2]}

    def test_deep_copies(self):
        body = {"recommendations": [{"x": 1}]}
        out = canonical_body(body)
        out["recommendations"][0]["x"] = 2
        assert body["recommendations"][0]["x"] == 1

    def test_request_key_is_canonical(self):
        assert request_key("post", "/p", {"b": 1, "a": 2}) == request_key(
            "POST", "/p", {"a": 2, "b": 1}
        )
        assert request_key("GET", "/p", None) == request_key("GET", "/p", {})


class TestConfigValidation:
    def test_bad_queue_capacity(self):
        with pytest.raises(ValueError):
            ServingConfig(queue_capacity=0)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            TenantPolicy(capacity=0)
        with pytest.raises(ValueError):
            TenantPolicy(refill_rate=-1)
        with pytest.raises(ValueError):
            TenantPolicy(capacity=float("nan"))
        with pytest.raises(ValueError):
            TenantPolicy(refill_rate=float("nan"))

    def test_bad_degraded_top_k(self):
        with pytest.raises(ValueError):
            ServingConfig(degraded_top_k=0)

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"warm_capacity": -1}, "warm_capacity"),
            ({"shed_retry_after": -0.5}, "shed_retry_after"),
        ],
        ids=["warm_capacity", "shed_retry_after"],
    )
    def test_negative_field_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ServingConfig(**overrides)

    def test_zero_warm_capacity_and_retry_hint_accepted(self):
        config = ServingConfig(warm_capacity=0, shed_retry_after=0.0, degraded_top_k=None)
        assert (config.warm_capacity, config.shed_retry_after) == (0, 0.0)
        assert config.degraded_top_k is None

    def test_policy_for_falls_back_to_default(self):
        policy = TenantPolicy(capacity=2, refill_rate=2.0)
        config = ServingConfig(tenant_policies=(("vip", policy),))
        assert config.policy_for("vip") is policy
        assert config.policy_for("anon") is config.default_policy

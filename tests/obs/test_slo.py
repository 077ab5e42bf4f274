"""SLO engine: specs, windows, burn-rate alerts, and the degradation arc.

The centerpiece is the synthetic-incident scenario the issue demands:
a steady request stream against one simulated host whose fault policy
ramps up mid-run, walking the health verdict ``ok -> warn -> burning``
deterministically under the virtual clock — with the burn-rate alert
firing *before* the compliance window's error budget is exhausted, and
tail-based retention keeping the breaching traces while evicting the
healthy ones.
"""

import pytest

from repro.obs import (
    BurnAlert,
    Observability,
    SloEngine,
    SloSpec,
    TailRetentionPolicy,
    default_http_slos,
    use,
)
from repro.obs.slo import default_alerts
from repro.obs.metrics import MetricsRegistry
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
from repro.web.http import LatencyModel, ServiceUnavailableError, SimulatedHttpClient


class TestSloSpec:
    def test_budget_is_one_minus_objective(self):
        spec = SloSpec(name="s", metric="m", objective=0.95)
        assert spec.budget == pytest.approx(0.05)

    def test_default_alerts_fill_in(self):
        spec = SloSpec(name="s", metric="m", window=3600.0)
        severities = [alert.severity for alert in spec.alerts]
        assert severities == ["burning", "warn"]

    def test_objective_validated(self):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(name="s", metric="m", objective=1.0)

    def test_labels_sorted_for_stable_identity(self):
        spec = SloSpec(name="s", metric="m", labels=(("b", "2"), ("a", "1")))
        assert spec.labels == (("a", "1"), ("b", "2"))

    def test_alert_validation(self):
        with pytest.raises(ValueError, match="severity"):
            BurnAlert("page", 1.0, 60.0, 10.0)
        with pytest.raises(ValueError, match="short window"):
            BurnAlert("warn", 1.0, 10.0, 60.0)

    @pytest.mark.parametrize(
        ("factor", "long_window", "short_window", "message"),
        [
            (0.0, 60.0, 10.0, "factor"),
            (-1.0, 60.0, 10.0, "factor"),
            (1.0, 0.0, 10.0, "windows"),
            (1.0, 60.0, 0.0, "windows"),
            (1.0, 60.0, -5.0, "windows"),
        ],
        ids=["factor-zero", "factor-negative", "long-zero", "short-zero", "short-negative"],
    )
    def test_alert_rates_and_windows_validated(
        self, factor, long_window, short_window, message
    ):
        with pytest.raises(ValueError, match=message):
            BurnAlert("warn", factor, long_window, short_window)

    def test_equal_windows_accepted(self):
        alert = BurnAlert("burning", 2.0, 60.0, 60.0)
        assert alert.long_window == alert.short_window == 60.0

    @pytest.mark.parametrize("objective", [0.0, -0.1, 1.5])
    def test_objective_outside_open_unit_interval_rejected(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(name="s", metric="m", objective=objective)

    @pytest.mark.parametrize("window", [0.0, -60.0, float("nan")])
    def test_non_positive_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            SloSpec(name="s", metric="m", window=window)

    def test_default_alerts_scale_with_the_window(self):
        # At a one-day window the ladder is 1h/5m at 14.4x and 6h/30m
        # at 3x.
        burning, warn = default_alerts(24 * 3600.0)
        assert (burning.severity, burning.factor) == ("burning", 14.4)
        assert (burning.long_window, burning.short_window) == (3600.0, 300.0)
        assert (warn.severity, warn.factor) == ("warn", 3.0)
        assert (warn.long_window, warn.short_window) == (6 * 3600.0, 1800.0)

    def test_explicit_alerts_kept(self):
        alert = BurnAlert("warn", 2.0, 120.0, 30.0)
        spec = SloSpec(name="s", metric="m", alerts=(alert,))
        assert spec.alerts == (alert,)


class TestSloEngine:
    def test_no_traffic_is_healthy(self):
        engine = SloEngine(MetricsRegistry())
        engine.add(SloSpec(name="s", metric="m"))
        status = engine.status("s")
        assert status.verdict == "ok"
        assert status.good_ratio == 1.0
        assert status.events == 0

    def test_good_ratio_counts_threshold_breaches(self):
        registry = MetricsRegistry()
        engine = SloEngine(registry)
        engine.add(SloSpec(name="s", metric="m", threshold=0.1, objective=0.5))
        for _ in range(8):
            registry.observe("m", 0.05)
        for _ in range(2):
            registry.observe("m", 5.0)
        status = engine.status("s")
        assert status.good_ratio == pytest.approx(0.8)
        assert status.bad == pytest.approx(2.0)

    def test_error_metric_subtracts_from_good(self):
        registry = MetricsRegistry()
        engine = SloEngine(registry)
        engine.add(
            SloSpec(
                name="s",
                metric="m",
                threshold=10.0,
                error_metric="errors_total",
                error_labels=(("kind", "fault"),),
            )
        )
        for _ in range(10):
            registry.observe("m", 0.05)
        registry.inc("errors_total", 3.0, kind="fault")
        registry.inc("errors_total", 99.0, kind="other")  # filtered out
        status = engine.status("s")
        assert status.bad == pytest.approx(3.0)

    def test_window_forgets_old_badness(self):
        clock = SimulatedClock()
        registry = MetricsRegistry()
        engine = SloEngine(registry, clock=clock)
        engine.add(
            SloSpec(name="s", metric="m", threshold=0.1, objective=0.9, window=100.0)
        )
        # Ten bad events early on, checkpointed ...
        for _ in range(10):
            registry.observe("m", 5.0)
        engine.tick()
        assert engine.status("s").verdict == "burning"
        # ... then the window slides past them with only good traffic.
        for _ in range(20):
            clock.advance(10.0)
            registry.observe("m", 0.01)
            engine.tick()
        status = engine.status("s")
        assert status.good_ratio == 1.0
        assert status.verdict == "ok"

    def test_replace_and_remove(self):
        engine = SloEngine(MetricsRegistry())
        engine.add(SloSpec(name="s", metric="m", objective=0.9))
        engine.add(SloSpec(name="s", metric="m", objective=0.5))
        assert [spec.objective for spec in engine.specs()] == [0.5]
        engine.remove("s")
        assert engine.specs() == []
        assert not engine.has_specs

    def test_verdict_aggregates_worst(self):
        registry = MetricsRegistry()
        engine = SloEngine(registry)
        engine.add(SloSpec(name="good", metric="a", threshold=1.0, objective=0.5))
        engine.add(SloSpec(name="bad", metric="b", threshold=0.1, objective=0.99))
        registry.observe("a", 0.01)
        for _ in range(5):
            registry.observe("b", 9.0)
        assert engine.status("good").verdict == "ok"
        assert engine.status("bad").verdict == "burning"
        assert engine.verdict() == "burning"

    def test_default_http_slos_one_per_host(self):
        specs = default_http_slos(["b.example", "a.example"])
        assert [spec.name for spec in specs] == [
            "http-a.example",
            "http-b.example",
        ]
        assert specs[0].error_labels == (
            ("host", "a.example"),
            ("status", "503"),
        )

    def test_default_http_slos_pass_overrides_through(self):
        (spec,) = default_http_slos(
            ["a.example"], objective=0.9, threshold=0.25, window=600.0
        )
        assert (spec.objective, spec.threshold, spec.window) == (0.9, 0.25, 600.0)
        assert spec.labels == (("host", "a.example"),)
        assert spec.alerts == default_alerts(600.0)

    def test_has_specs_follows_add_and_remove(self):
        engine = SloEngine(MetricsRegistry())
        assert not engine.has_specs
        engine.add(SloSpec(name="s", metric="m"))
        assert engine.has_specs
        engine.remove("s")
        assert not engine.has_specs
        engine.remove("s")  # a missing name is ignored

    def test_unbound_engine_measures_time_in_ticks(self):
        engine = SloEngine(MetricsRegistry())
        assert engine.now() == 0.0
        engine.tick()
        engine.tick()
        assert engine.now() == 2.0

    def test_status_of_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            SloEngine(MetricsRegistry()).status("missing")

    def test_status_to_dict_round_trips_alerts(self):
        engine = SloEngine(MetricsRegistry())
        engine.add(SloSpec(name="s", metric="m"))
        payload = engine.status("s").to_dict()
        assert payload["verdict"] == "ok"
        assert all("firing" in alert for alert in payload["alerts"])


HOST = "degrading.example"


class TestDegradationScenario:
    """The issue's acceptance scenario, end to end and deterministic."""

    # 1 virtual second per request: request index == virtual time.
    WARN_ALERT = BurnAlert("warn", 2.0, long_window=60.0, short_window=20.0)
    BURN_ALERT = BurnAlert("burning", 6.0, long_window=60.0, short_window=10.0)

    @pytest.fixture(scope="class")
    def arc(self):
        """Run the three-phase incident once; tests assert on its course."""
        obs = Observability()
        obs.tracer.enable_tail_retention(
            TailRetentionPolicy(latency_threshold=50.0, keep_errors=True)
        )
        clock = SimulatedClock()
        client = SimulatedHttpClient(clock)
        client.register_host(
            HOST, lambda req: {}, latency=LatencyModel(base=1.0, jitter=0.0)
        )
        engine = obs.slo
        engine.bind_clock(clock)
        engine.add(
            SloSpec(
                name="slo",
                metric="http_request_latency_seconds",
                labels=(("host", HOST),),
                threshold=2.0,
                objective=0.9,
                window=600.0,
                error_metric="http_requests_total",
                error_labels=(("host", HOST), ("status", "503")),
                alerts=(self.BURN_ALERT, self.WARN_ALERT),
            )
        )
        course = []  # (index, verdict, status) after each request
        healthy_traces = 0
        with use(obs):
            index = 0

            def drive(count):
                nonlocal index
                for _ in range(count):
                    try:
                        with obs.span("request", i=index):
                            client.get(HOST, f"/item/{index}")
                    except ServiceUnavailableError:
                        pass
                    engine.tick()
                    course.append((index, engine.status("slo")))
                    index += 1

            drive(500)  # phase 1: healthy steady state
            healthy_traces = index - client.stats[HOST].faults
            client.set_fault_policy(
                HOST, FaultPolicy(failure_probability=0.3, seed=1)
            )
            drive(60)  # phase 2: partial degradation
            client.set_fault_policy(
                HOST, FaultPolicy(failure_probability=0.9, seed=2)
            )
            drive(40)  # phase 3: the host falls over
        return {
            "obs": obs,
            "client": client,
            "course": course,
            "healthy_traces": healthy_traces,
        }

    @staticmethod
    def _first(course, verdict, start=0):
        for index, status in course[start:]:
            if status.verdict == verdict:
                return index
        return None

    def test_verdict_walks_ok_warn_burning(self, arc):
        course = arc["course"]
        # Phase 1 is entirely healthy.
        assert all(status.verdict == "ok" for _, status in course[:500])
        first_warn = self._first(course, "warn")
        first_burning = self._first(course, "burning")
        assert first_warn is not None and first_burning is not None
        # Warn during the partial degradation, burning after the cliff.
        assert 500 <= first_warn < 560
        assert 560 <= first_burning < 600
        assert first_warn < first_burning
        # The end state stays on fire.
        assert course[-1][1].verdict == "burning"

    def test_alert_fires_before_budget_exhausted(self, arc):
        course = arc["course"]
        first_burning = self._first(course, "burning")
        status = dict(course)[first_burning]
        # The page fired on burn *rate*, while the compliance window was
        # still inside its objective — that is the point of burn alerts.
        assert status.good_ratio >= status.objective
        assert status.budget_consumed < 1.0
        firing = [dict(a) for a in status.alerts if dict(a)["firing"]]
        assert any(alert["severity"] == "burning" for alert in firing)

    def test_burn_rates_reported_per_tier(self, arc):
        final = arc["course"][-1][1]
        alerts = [dict(a) for a in final.alerts]
        assert {alert["severity"] for alert in alerts} == {"warn", "burning"}
        for alert in alerts:
            assert alert["long_burn"] > alert["factor"]
            assert alert["short_burn"] > alert["factor"]

    def test_breaching_traces_retained_healthy_evicted(self, arc):
        obs, client = arc["obs"], arc["client"]
        stats = obs.tracer.retention_stats()
        faults = client.stats[HOST].faults
        # Every faulted request errored inside its root span: retained.
        assert stats["retained_traces"] == faults
        retained = obs.tracer.finished("request")
        assert retained and all(span.error is not None for span in retained)
        # And at least 90% of the healthy traces were evicted (here: all).
        total_traces = stats["retained_traces"] + stats["evicted_traces"]
        assert total_traces == 600
        assert stats["evicted_traces"] >= 0.9 * (total_traces - faults)

    def test_course_is_deterministic(self, arc):
        """Replaying the exact arc reproduces verdict flips bit-identically."""
        obs = Observability()
        clock = SimulatedClock()
        client = SimulatedHttpClient(clock)
        client.register_host(
            HOST, lambda req: {}, latency=LatencyModel(base=1.0, jitter=0.0)
        )
        engine = obs.slo
        engine.bind_clock(clock)
        engine.add(
            SloSpec(
                name="slo",
                metric="http_request_latency_seconds",
                labels=(("host", HOST),),
                threshold=2.0,
                objective=0.9,
                window=600.0,
                error_metric="http_requests_total",
                error_labels=(("host", HOST), ("status", "503")),
                alerts=(self.BURN_ALERT, self.WARN_ALERT),
            )
        )
        verdicts = []
        with use(obs):
            for index in range(600):
                if index == 500:
                    client.set_fault_policy(
                        HOST, FaultPolicy(failure_probability=0.3, seed=1)
                    )
                if index == 560:
                    client.set_fault_policy(
                        HOST, FaultPolicy(failure_probability=0.9, seed=2)
                    )
                try:
                    client.get(HOST, f"/item/{index}")
                except ServiceUnavailableError:
                    pass
                engine.tick()
                verdicts.append(engine.status("slo").verdict)
        assert verdicts == [status.verdict for _, status in arc["course"]]

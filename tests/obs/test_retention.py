"""Tail-based trace retention: keep the interesting trees, drop the rest."""

import pytest

from repro.obs import Observability, TailRetentionPolicy
from repro.obs.events import EventBus, RingSink
from repro.obs.spans import Tracer
from repro.web.clock import SimulatedClock


def make_tracer(events=None):
    return Tracer(events=events)


class TestPolicyValidation:
    def test_rejects_zero_pending_capacity(self):
        with pytest.raises(ValueError, match="pending_capacity"):
            TailRetentionPolicy(pending_capacity=0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="latency_threshold"):
            TailRetentionPolicy(latency_threshold=-1.0)

    def test_defaults_keep_errors_only(self):
        policy = TailRetentionPolicy()
        assert policy.keep_errors and policy.latency_threshold is None


class TestRetentionDecisions:
    def test_disabled_by_default_keeps_everything(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.finished()) == 1
        assert tracer.retention_stats()["enabled"] is False

    def test_healthy_fast_trace_evicted(self):
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=10.0))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert tracer.finished() == []
        stats = tracer.retention_stats()
        assert stats["evicted_traces"] == 1
        assert stats["evicted_spans"] == 2

    def test_erroring_trace_retained_in_full(self):
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy())
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("ok_child"):
                    pass
                with tracer.span("bad_child"):
                    raise RuntimeError("boom")
        # The whole tree survives, including the span that did not fail.
        assert sorted(s.name for s in tracer.finished()) == [
            "bad_child",
            "ok_child",
            "root",
        ]
        assert tracer.retention_stats()["retained_traces"] == 1

    def test_error_retention_can_be_disabled(self):
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(keep_errors=False))
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("boom")
        assert tracer.finished() == []

    def test_slow_trace_retained_on_virtual_clock(self):
        clock = SimulatedClock()
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=5.0))
        with tracer.span("slow", clock=clock):
            clock.advance(9.0)
        with tracer.span("fast", clock=clock):
            clock.advance(1.0)
        assert [s.name for s in tracer.finished()] == ["slow"]

    def test_wall_clock_fallback_without_virtual_timing(self):
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=0.0))
        with tracer.span("any"):  # wall duration > 0 always
            pass
        assert [s.name for s in tracer.finished()] == ["any"]

    def test_mark_retain_overrides_policy(self):
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=100.0))
        with tracer.span("root") as span:
            tracer.mark_retain(span.trace_id)
        assert [s.name for s in tracer.finished()] == ["root"]

    def test_nested_spans_share_the_root_fate(self):
        clock = SimulatedClock()
        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=5.0))
        with tracer.span("root", clock=clock):
            with tracer.span("child", clock=clock):
                clock.advance(9.0)  # child is slow, so root is slow too
        assert sorted(s.name for s in tracer.finished()) == ["child", "root"]


class TestPendingBuffer:
    def test_pending_overflow_evicts_oldest(self):
        import contextvars

        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy(pending_capacity=2))
        # Three traces whose roots never close: each opened in a copied
        # context so the leaked roots stay distinct top-level traces and
        # never pollute this thread's span context.
        def open_trace(i):
            root = tracer.span(f"root-{i}")
            root.__enter__()
            with tracer.span(f"child-{i}"):
                pass

        for i in range(3):
            contextvars.copy_context().run(open_trace, i)
        stats = tracer.retention_stats()
        assert stats["pending_traces"] == 2
        assert stats["evicted_traces"] == 1  # the oldest open trace
        assert stats["evicted_spans"] == 1

    def test_clear_drops_pending_state(self):
        import contextvars

        tracer = make_tracer()
        tracer.enable_tail_retention(TailRetentionPolicy())

        def open_trace():
            tracer.span("root").__enter__()
            with tracer.span("child"):
                pass

        contextvars.copy_context().run(open_trace)
        assert tracer.retention_stats()["pending_traces"] == 1
        tracer.clear()
        assert tracer.retention_stats()["pending_traces"] == 0


class TestEventsUnaffected:
    def test_span_end_events_emitted_for_evicted_traces(self):
        # Retention governs the in-memory ring only; the structured log
        # still sees every span, so offline profiling stays complete.
        sink = RingSink()
        tracer = make_tracer(events=EventBus([sink]))
        tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=99.0))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert tracer.finished() == []
        assert sorted(e.fields["span"] for e in sink.events("span_end")) == [
            "child",
            "root",
        ]


class TestObservabilityIntegration:
    def test_facade_exposes_retention(self):
        obs = Observability()
        obs.tracer.enable_tail_retention(TailRetentionPolicy())
        with pytest.raises(ValueError):
            with obs.span("request"):
                raise ValueError("bad request")
        with obs.span("request"):
            pass
        stats = obs.tracer.retention_stats()
        assert stats["retained_traces"] == 1
        assert stats["evicted_traces"] == 1

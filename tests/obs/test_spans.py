"""Tests for hierarchical spans and the tracer."""

import json

import pytest

from repro.obs.events import EventBus, RingSink
from repro.obs.spans import NULL_SPAN, Tracer, current_span
from repro.web.clock import SimulatedClock


class TestParenting:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert outer.trace_id == middle.trace_id == inner.trace_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_current_span_tracks_context(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_parenting_crosses_pool_threads(self):
        from repro.concurrency import create_executor
        from repro.obs import Observability, use

        obs = Observability()
        executor = create_executor(4)

        def task(i):
            with obs.span("child", i=i) as span:
                return span

        with use(obs):
            with obs.span("parent") as parent:
                children = executor.map(task, range(8))
        assert all(c.trace_id == parent.trace_id for c in children)
        # Each child sits inside the map's one ``executor.map`` span,
        # which in turn parents under the span open at the call site.
        [fanout] = obs.tracer.finished("executor.map")
        assert fanout.parent_id == parent.span_id
        assert all(child.parent_id == fanout.span_id for child in children)


class TestTiming:
    def test_wall_duration_recorded(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.wall_end is not None
        assert span.wall_seconds >= 0.0

    def test_virtual_duration_from_clock(self):
        tracer = Tracer()
        clock = SimulatedClock()
        with tracer.span("work", clock=clock) as span:
            clock.advance(3.25)
        assert span.virtual_seconds == pytest.approx(3.25)

    def test_virtual_is_none_without_clock(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.virtual_seconds is None
        assert "virtual_seconds" not in span.to_dict()

    def test_children_inherit_parent_clock(self):
        tracer = Tracer()
        clock = SimulatedClock()
        with tracer.span("outer", clock=clock):
            with tracer.span("inner") as inner:
                clock.advance(1.0)
        assert inner.virtual_seconds == pytest.approx(1.0)


class TestRecording:
    def test_finished_ring_bounded(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished()] == ["s2", "s3"]

    def test_error_captured(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        [span] = tracer.finished()
        assert span.error == "RuntimeError: kaput"
        assert span.to_dict()["error"] == "RuntimeError: kaput"

    def test_span_end_event_emitted(self):
        ring = RingSink()
        tracer = Tracer(events=EventBus([ring]))
        with tracer.span("work", host="dblp"):
            pass
        [event] = ring.events("span_end")
        assert event.fields["span"] == "work"
        assert event.fields["labels"] == {"host": "dblp"}

    def test_labels_and_set_label(self):
        tracer = Tracer()
        with tracer.span("work", a=1) as span:
            span.set_label("b", 2)
        assert span.to_dict()["labels"] == {"a": 1, "b": 2}

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.clear()
        assert tracer.finished() == []

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestSpanTrees:
    def test_forest_structure(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("left"):
                pass
            with tracer.span("right"):
                with tracer.span("leaf"):
                    pass
        [tree] = tracer.span_trees()
        assert tree["name"] == "root"
        assert [c["name"] for c in tree["children"]] == ["left", "right"]
        assert tree["children"][1]["children"][0]["name"] == "leaf"

    def test_trace_id_filter(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second"):
            pass
        trees = tracer.span_trees(trace_id=first.trace_id)
        assert [t["name"] for t in trees] == ["first"]

    def test_orphans_surface_as_roots(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            # The parent is still open (unrecorded), so the finished
            # child has no recorded parent and surfaces as a root.
            [tree] = tracer.span_trees()
        assert tree["name"] == "child"

    def test_trees_are_json_serialisable(self):
        tracer = Tracer()
        clock = SimulatedClock()
        with tracer.span("root", clock=clock, n=1):
            clock.advance(0.5)
        json.dumps(tracer.span_trees())


class TestNullSpan:
    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set_label("anything", 1)
        assert span is NULL_SPAN
        assert current_span() is None

"""Tests for structured events and sinks."""

import json

import pytest

from repro.obs.events import Event, EventBus, JsonlSink, RingSink, SinkClosedError


class TestEvent:
    def test_to_dict_flattens_fields(self):
        event = Event("tick", wall_time=1.0, virtual_time=2.0, fields={"n": 3})
        assert event.to_dict() == {
            "event": "tick",
            "wall_time": 1.0,
            "virtual_time": 2.0,
            "n": 3,
        }

    def test_virtual_time_omitted_when_absent(self):
        assert "virtual_time" not in Event("tick", wall_time=1.0).to_dict()


class TestRingSink:
    def test_keeps_most_recent(self):
        sink = RingSink(capacity=3)
        bus = EventBus([sink])
        for i in range(5):
            bus.emit("tick", i=i)
        assert [e.fields["i"] for e in sink.events()] == [2, 3, 4]

    def test_filter_by_name(self):
        sink = RingSink()
        bus = EventBus([sink])
        bus.emit("a")
        bus.emit("b")
        bus.emit("a")
        assert len(sink.events("a")) == 2
        assert len(sink.events()) == 3

    def test_clear(self):
        sink = RingSink()
        sink.write(Event("x", wall_time=0.0))
        sink.clear()
        assert sink.events() == []

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingSink(capacity=0)


class TestJsonlSink:
    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            bus = EventBus([sink])
            bus.emit("first", n=1)
            bus.emit("second", n=2)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["first", "second"]
        assert lines[1]["n"] == 2

    def test_unserialisable_values_stringified(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.write(Event("odd", wall_time=0.0, fields={"obj": object()}))
        record = json.loads(path.read_text())
        assert record["obj"].startswith("<object object")

    def test_write_after_close_raises_typed_error(self, tmp_path):
        # A silent drop would lose telemetry after a mis-ordered
        # shutdown; the contract is now a loud, typed failure.
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.close()
        with pytest.raises(SinkClosedError, match="late"):
            sink.write(Event("late", wall_time=0.0))
        assert path.read_text() == ""
        assert sink.closed

    def test_exit_flushes_during_exception_propagation(self, tmp_path):
        # A crashing run must still leave its buffered lines on disk.
        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlSink(path) as sink:
                bus = EventBus([sink])
                bus.emit("before_crash", n=1)
                raise RuntimeError("boom")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["before_crash"]
        assert sink.closed

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        sink.close()
        assert sink.closed


class TestEventBus:
    def test_fans_out_to_all_sinks(self):
        a, b = RingSink(), RingSink()
        bus = EventBus([a])
        bus.add_sink(b)
        bus.emit("tick")
        assert len(a.events()) == len(b.events()) == 1

    def test_remove_sink(self):
        sink = RingSink()
        bus = EventBus([sink])
        bus.remove_sink(sink)
        bus.emit("tick")
        assert sink.events() == []
        bus.remove_sink(sink)  # idempotent

    def test_clock_stamps_virtual_time(self):
        from repro.web.clock import SimulatedClock

        clock = SimulatedClock()
        clock.advance(7.5)
        event = EventBus([RingSink()]).emit("tick", clock=clock)
        assert event.virtual_time == 7.5


class TestSpanEndEvents:
    """A ``span_end`` event reads as the finished span's ``to_dict()``."""

    def _span_fields(self, span):
        fields = span.to_dict()
        fields["span"] = fields.pop("name")
        return fields

    def test_ring_and_jsonl_carry_the_span_fields(self, tmp_path):
        from repro.obs import Observability, RequestLedger
        from repro.obs.ledger import charge_wait

        obs = Observability()
        path = tmp_path / "events.jsonl"
        sink = obs.add_jsonl_sink(path)
        with RequestLedger(), obs.span("outer", k="v") as outer:
            charge_wait(1.5)
            with pytest.raises(ValueError):
                with obs.span("inner", n=3):
                    raise ValueError("boom")
        sink.close()
        events = obs.ring.events("span_end")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e.fields["span"] for e in events] == ["inner", "outer"]
        assert [line["span"] for line in lines] == ["inner", "outer"]
        for event, line, span in zip(events, lines, obs.tracer.finished()):
            assert event.name == line["event"] == "span_end"
            assert event.fields == self._span_fields(span)
            assert event.to_dict() == line
            assert line["wall_time"] == event.wall_time
            assert "virtual_time" not in line  # the span's own field carries it
        assert events[0].fields["error"] == "ValueError: boom"
        assert events[0].fields["virtual_seconds"] == 0.0
        assert events[1].fields["labels"] == {"k": "v"}
        assert events[1].fields["virtual_seconds"] == outer.virtual_seconds == 1.5

    def test_fields_match_an_eagerly_built_event(self):
        from repro.obs import Observability

        obs = Observability()
        with obs.span("work", a=1):
            pass
        [event] = obs.ring.events("span_end")
        [span] = obs.tracer.finished("work")
        eager = Event(
            "span_end", wall_time=event.wall_time, fields=self._span_fields(span)
        )
        assert event.to_dict() == eager.to_dict()
        assert list(event.to_dict()) == list(eager.to_dict())


"""Phase profiler: self-time math, input normalisation, rendering."""

import pytest

from repro.assignment import recommend_batch
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.obs import (
    Observability,
    RequestLedger,
    phase_profile,
    render_flame_table,
    use,
)
from repro.obs.events import EventBus, RingSink
from repro.obs.ledger import charge_wait
from repro.obs.profile import spans_from_events
from repro.scholarly.registry import ScholarlyHub
from repro.world.conference import ConferenceConfig, generate_conference


def span_record(
    name,
    trace_id=1,
    span_id=1,
    parent_id=None,
    wall=0.0,
    virtual=0.0,
    error=None,
):
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "wall_seconds": wall,
        "virtual_seconds": virtual,
        "error": error,
    }


class TestSelfTimeMath:
    def test_children_subtracted_from_parent(self):
        spans = [
            span_record("root", span_id=1, wall=10.0, virtual=100.0),
            span_record("child", span_id=2, parent_id=1, wall=4.0, virtual=60.0),
            span_record("child", span_id=3, parent_id=1, wall=3.0, virtual=30.0),
        ]
        by_name = {p.name: p for p in phase_profile(spans)}
        root, child = by_name["root"], by_name["child"]
        assert root.virtual_total == 100.0
        assert root.virtual_self == 10.0  # 100 - (60 + 30)
        assert root.wall_self == 3.0
        assert child.calls == 2
        assert child.virtual_self == 90.0  # leaves keep everything

    def test_grandchildren_only_charge_their_parent(self):
        spans = [
            span_record("root", span_id=1, virtual=100.0),
            span_record("mid", span_id=2, parent_id=1, virtual=80.0),
            span_record("leaf", span_id=3, parent_id=2, virtual=50.0),
        ]
        by_name = {p.name: p for p in phase_profile(spans)}
        assert by_name["root"].virtual_self == 20.0
        assert by_name["mid"].virtual_self == 30.0
        assert by_name["leaf"].virtual_self == 50.0

    def test_self_time_clamped_at_zero(self):
        spans = [
            span_record("root", span_id=1, virtual=1.0),
            span_record("child", span_id=2, parent_id=1, virtual=5.0),
        ]
        by_name = {p.name: p for p in phase_profile(spans)}
        assert by_name["root"].virtual_self == 0.0

    def test_same_span_ids_in_different_traces_stay_separate(self):
        spans = [
            span_record("root", trace_id=1, span_id=1, virtual=10.0),
            span_record("root", trace_id=2, span_id=1, virtual=10.0),
            span_record("child", trace_id=2, span_id=2, parent_id=1, virtual=4.0),
        ]
        by_name = {p.name: p for p in phase_profile(spans)}
        # Only trace 2's root loses the child's time.
        assert by_name["root"].virtual_self == 16.0

    def test_errors_counted(self):
        spans = [
            span_record("a", span_id=1, error="RuntimeError: boom"),
            span_record("a", span_id=2),
        ]
        (profile,) = phase_profile(spans)
        assert profile.errors == 1
        assert profile.calls == 2

    def test_sorted_by_virtual_self_descending(self):
        spans = [
            span_record("cheap", span_id=1, virtual=1.0),
            span_record("dear", span_id=2, virtual=9.0),
        ]
        assert [p.name for p in phase_profile(spans)] == ["dear", "cheap"]


class TestInputShapes:
    def test_live_spans_from_a_tracer(self):
        obs = Observability()
        with RequestLedger(), obs.span("outer"):
            with obs.span("inner"):
                charge_wait(3.0)
            charge_wait(1.0)
        by_name = {p.name: p for p in phase_profile(obs.tracer.finished())}
        assert by_name["outer"].virtual_self == 1.0
        assert by_name["inner"].virtual_self == 3.0

    def test_span_end_events_round_trip(self):
        # The CLI's offline path: events logged to JSONL, read back.
        sink = RingSink()
        obs = Observability()
        obs.tracer._events = EventBus([sink])
        with RequestLedger(), obs.span("outer"):
            charge_wait(2.0)
        records = spans_from_events(e.to_dict() for e in sink.events())
        assert len(records) == 1
        (profile,) = phase_profile(records)
        assert profile.name == "outer"
        assert profile.virtual_total == 2.0

    def test_spans_from_events_filters_other_events(self):
        rows = [
            {"event": "metric", "name": "x"},
            {"event": "span_end", "span": "a", "wall_seconds": 0.1},
        ]
        records = spans_from_events(rows)
        assert len(records) == 1
        (profile,) = phase_profile(records)
        assert profile.name == "a"


class TestRendering:
    def test_flame_table_has_header_and_rows(self):
        spans = [span_record("alpha", span_id=1, virtual=2.0, wall=0.5)]
        table = render_flame_table(phase_profile(spans))
        lines = table.splitlines()
        assert lines[0].startswith("span")
        assert "alpha" in lines[1]
        assert "2.000s" in lines[1]

    def test_top_limits_rows(self):
        spans = [
            span_record(f"s{i}", span_id=i + 1, virtual=float(i)) for i in range(5)
        ]
        table = render_flame_table(phase_profile(spans), top=2)
        assert len(table.splitlines()) == 3  # header + 2 rows

    def test_to_dict_rounds(self):
        spans = [span_record("a", span_id=1, virtual=1.23456789)]
        (profile,) = phase_profile(spans)
        assert profile.to_dict()["virtual_total"] == 1.234568


class TestBatchProfile:
    """A batch's profile reads the same virtual time at any worker count.

    Each span reads the ledger of its own run, so concurrent papers on
    one hub, whose requests all advance one shared clock, cannot inflate
    one another's spans.
    """

    @pytest.fixture(scope="class")
    def entries(self, world):
        return generate_conference(
            world, ConferenceConfig(paper_count=12, seed=1)
        ).entries()

    @staticmethod
    def _profile(world, entries, warm, workers):
        obs = Observability()
        with use(obs):
            minaret = Minaret(
                ScholarlyHub.deploy(world), config=PipelineConfig(warm_cache=warm)
            )
            results = dict(recommend_batch(minaret, entries, workers=workers))
        spans = obs.tracer.finished()
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if not span.name.startswith("phase."):
                continue
            paper = by_id[by_id[span.parent_id].parent_id]
            assert paper.name == "manuscript.recommend"
            [report] = [
                report
                for report in results[paper.labels["paper_id"]].phase_reports
                if f"phase.{report.phase}" == span.name
            ]
            assert span.virtual_seconds == report.virtual_seconds
        return phase_profile(spans)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_identical_at_any_batch_worker_count(self, world, entries, warm):
        baseline = self._profile(world, entries, warm, workers=1)
        assert sum(p.virtual_total for p in baseline if p.name.startswith("phase.")) > 0
        # A warm wave whose items are all stored already maps nothing, and
        # which items another paper stored first follows the interleaving:
        # there the number of fan-outs may differ, their virtual time not.
        varies = {"executor.map"} if warm else set()
        for workers in (2, 4):
            profile = self._profile(world, entries, warm, workers)
            assert {p.name: p.calls for p in profile if p.name not in varies} == {
                p.name: p.calls for p in baseline if p.name not in varies
            }
            assert {
                (p.name, column): getattr(p, column)
                for p in profile
                for column in ("virtual_total", "virtual_self")
            } == pytest.approx(
                {
                    (p.name, column): getattr(p, column)
                    for p in baseline
                    for column in ("virtual_total", "virtual_self")
                },
                abs=1e-9,
            )
            # Rows with virtual self time keep their order; wall time
            # orders the rest.
            assert [p.name for p in profile if p.virtual_self > 1e-6] == [
                p.name for p in baseline if p.virtual_self > 1e-6
            ]

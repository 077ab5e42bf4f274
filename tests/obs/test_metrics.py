"""Tests for the metrics registry."""

import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, label_key


class TestCounters:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", host="dblp")
        registry.inc("requests_total", host="dblp")
        registry.inc("requests_total", 3.0, host="scholar")
        assert registry.counter_value("requests_total", host="dblp") == 2.0
        assert registry.counter_value("requests_total", host="scholar") == 3.0
        assert registry.counter_total("requests_total") == 5.0

    def test_unwritten_series_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nothing", a="b") == 0.0
        assert registry.counter_total("nothing") == 0.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("m", a="1", b="2")
        assert registry.counter_value("m", b="2", a="1") == 1.0

    def test_label_values_stringified(self):
        registry = MetricsRegistry()
        registry.inc("m", code=404)
        assert registry.counter_value("m", code="404") == 1.0


class TestGauges:
    def test_set_keeps_the_last_value(self):
        registry = MetricsRegistry()
        registry.gauge_set("depth", 4.0, pool="a")
        registry.gauge_set("depth", 3.0, pool="a")
        assert registry.snapshot()["gauges"]["depth"] == [
            {"labels": {"pool": "a"}, "value": 3.0}
        ]

    def test_unwritten_gauge_has_no_series(self):
        registry = MetricsRegistry()
        assert registry.snapshot()["gauges"] == {}


class TestHistograms:
    def test_observe_and_stats(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.004, host="dblp")
        registry.observe("latency", 0.09, host="dblp")
        registry.observe("latency", 99.0, host="dblp")
        stats = registry.histogram_stats("latency", host="dblp")
        assert stats["count"] == 3
        assert stats["sum"] == pytest.approx(99.094)
        assert stats["buckets"]["0.005"] == 1
        assert stats["buckets"]["0.1"] == 2
        assert stats["buckets"]["+Inf"] == 3

    def test_buckets_are_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.02, 0.3, 4.0):
            registry.observe("latency", value)
        stats = registry.histogram_stats("latency")
        counts = list(stats["buckets"].values())
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_first_observation_fixes_bounds(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0, buckets=(0.5, 2.0))
        registry.observe("latency", 1.0, buckets=(9.9,), host="x")  # ignored
        assert set(registry.histogram_stats("latency", host="x")["buckets"]) == {
            "0.5",
            "2.0",
            "+Inf",
        }

    def test_default_bounds(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.01)
        buckets = registry.histogram_stats("latency")["buckets"]
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1

    def test_missing_series_is_none(self):
        assert MetricsRegistry().histogram_stats("nope") is None


class TestDeclaredBounds:
    """declare_histogram fixes bucket bounds ahead of any observation."""

    def test_declared_bounds_used_by_all_series(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (0.25, 0.5, 1.0))
        registry.observe("latency", 0.3, host="a")
        registry.observe("latency", 0.3, host="b")
        for host in ("a", "b"):
            buckets = registry.histogram_stats("latency", host=host)["buckets"]
            assert set(buckets) == {"0.25", "0.5", "1.0", "+Inf"}

    def test_declaration_beats_observe_time_buckets(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 2.0))
        registry.observe("latency", 0.5, buckets=(9.9,))  # ignored
        buckets = registry.histogram_stats("latency")["buckets"]
        assert set(buckets) == {"1.0", "2.0", "+Inf"}

    def test_identical_redeclaration_is_a_noop(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 2.0))
        registry.declare_histogram("latency", (1.0, 2.0))
        registry.observe("latency", 1.5)
        assert registry.histogram_stats("latency")["count"] == 1

    def test_conflicting_redeclaration_raises(self):
        from repro.obs.metrics import HistogramBoundsError

        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 2.0))
        with pytest.raises(HistogramBoundsError, match="already fixed"):
            registry.declare_histogram("latency", (1.0, 3.0))

    def test_mismatch_after_first_observation_raises(self):
        # Regression guard: the silent-footgun case the declaration API
        # exists to catch — bounds fixed implicitly by a first
        # observation, then a deployment declares different ones.
        from repro.obs.metrics import HistogramBoundsError

        registry = MetricsRegistry()
        registry.observe("latency", 0.2)  # DEFAULT_BUCKETS now fixed
        with pytest.raises(HistogramBoundsError, match="latency"):
            registry.declare_histogram("latency", (1.0, 2.0))
        registry.declare_histogram("latency", DEFAULT_BUCKETS)  # same: fine

    def test_invalid_declarations_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.declare_histogram("latency", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.declare_histogram("latency", (2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.declare_histogram("latency", (1.0, 1.0))


class TestKeyedWrites:
    """A prebuilt key and the labelled call name one series."""

    def test_inc_key_and_inc_share_a_series(self):
        registry = MetricsRegistry()
        registry.inc_key("c", label_key(a=1))
        registry.inc("c", a="1")
        assert registry.counter_value("c", a="1") == 2.0
        assert registry.snapshot()["counters"]["c"] == [
            {"labels": {"a": "1"}, "value": 2.0}
        ]

    def test_observe_key_and_observe_share_a_series(self):
        registry = MetricsRegistry()
        registry.observe_key("h", label_key(a=1), 0.5, exemplar=(1, 2))
        registry.observe("h", 1.5, a="1")
        [series] = registry.snapshot()["histograms"]["h"]
        assert series["labels"] == {"a": "1"}
        assert series["count"] == 2
        assert series["sum"] == 2.0
        assert series["exemplars"] == [{"value": 0.5, "trace_id": 1, "span_id": 2}]

    def test_write_and_keyed_calls_share_series(self):
        registry = MetricsRegistry()
        registry.inc_key("c", label_key(a=1))
        registry.observe_key("h", label_key(a=1), 0.5)
        registry.write(
            counters=[("c", label_key(a=1), 2.0), ("c", label_key(a=2), 1.0)],
            observations=[("h", label_key(a=1), (1.0, 1.5))],
            exemplar=(3, 4),
        )
        assert registry.counter_value("c", a="1") == 3.0
        assert registry.counter_value("c", a="2") == 1.0
        [series] = registry.snapshot()["histograms"]["h"]
        assert series["count"] == 3
        assert series["sum"] == 3.0
        assert series["exemplars"] == [
            {"value": 1.0, "trace_id": 3, "span_id": 4},
            {"value": 1.5, "trace_id": 3, "span_id": 4},
        ]

    def test_observe_key_keeps_declared_then_default_bounds(self):
        registry = MetricsRegistry()
        registry.declare_histogram("declared", (1.0, 2.0))
        registry.observe_key("declared", label_key(a=1), 1.5)
        registry.observe_key("plain", label_key(a=1), 1.5)
        assert set(registry.histogram_stats("declared", a=1)["buckets"]) == {
            "1.0",
            "2.0",
            "+Inf",
        }
        assert len(registry.histogram_stats("plain", a=1)["buckets"]) == (
            len(DEFAULT_BUCKETS) + 1
        )

    def test_keyed_writes_recreate_series_after_reset(self):
        registry = MetricsRegistry()
        key = label_key(a=1)
        registry.inc_key("c", key)
        registry.observe_key("h", key, 0.1)
        registry.write([("w", key, 1.0)], [("hw", key, (0.1,))])
        registry.reset()
        registry.inc_key("c", key)
        registry.observe_key("h", key, 0.1)
        registry.write([("w", key, 1.0)], [("hw", key, (0.1,))])
        assert registry.counter_value("c", a=1) == 1.0
        assert registry.histogram_stats("h", a=1)["count"] == 1
        assert registry.counter_value("w", a=1) == 1.0
        assert registry.histogram_stats("hw", a=1)["count"] == 1


class TestSnapshotAndReset:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", host="h")
        registry.gauge_set("g", 1.5)
        registry.observe("h", 0.2, route="/x")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == [
            {"labels": {"host": "h"}, "value": 1.0}
        ]
        assert snapshot["gauges"]["g"] == [{"labels": {}, "value": 1.5}]
        [series] = snapshot["histograms"]["h"]
        assert series["labels"] == {"route": "/x"}
        assert series["count"] == 1

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.inc("c", host="h", status=200)
        registry.observe("h", 0.2)
        json.dumps(registry.snapshot())

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 0.1, buckets=(1.0,))
        registry.reset()
        assert registry.counter_total("c") == 0.0
        assert registry.histogram_stats("h") is None
        # Bucket-bound registration is gone too: new bounds apply.
        registry.observe("h", 0.1, buckets=(5.0,))
        assert set(registry.histogram_stats("h")["buckets"]) == {"5.0", "+Inf"}


class TestThreadSafety:
    def test_concurrent_increments_all_land(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.inc("c", worker="shared")
                registry.observe("h", 0.01, worker="shared")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("c", worker="shared") == 8000.0
        assert registry.histogram_stats("h", worker="shared")["count"] == 8000

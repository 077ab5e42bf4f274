"""End-to-end checks that the hot layers actually report telemetry."""

import threading
from collections import Counter

import pytest

import repro.obs.metrics as metrics_module
from repro.api.handlers import MinaretApi
from repro.concurrency import create_executor
from repro.core.pipeline import Minaret
from repro.obs import Observability, RequestLedger, get_obs, use
from repro.scholarly.registry import ScholarlyHub
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
from repro.web.http import LatencyModel, RateLimitedError, SimulatedHttpClient
from repro.web.ratelimit import TokenBucket
from repro.world.config import WorldConfig
from repro.world.generator import generate_world
from tests.conftest import make_manuscript


@pytest.fixture()
def obs():
    return Observability()


class TestAmbientInstance:
    def test_use_installs_and_restores(self, obs):
        default = get_obs()
        with use(obs):
            assert get_obs() is obs
        assert get_obs() is default

    def test_instrumentation_lands_in_installed_instance(self, obs):
        other = Observability()
        clock = SimulatedClock()
        cache = TTLCache(ttl=None, capacity=4, clock=clock, name="probe")
        with use(obs):
            cache.get("missing")
        assert obs.metrics.counter_value("cache_misses_total", cache="probe") == 1.0
        assert other.metrics.counter_total("cache_misses_total") == 0.0


class TestHttpInstrumentation:
    def test_per_host_counters_and_latency(self, obs, hub, manuscript):
        with use(obs):
            Minaret(hub).recommend(manuscript)
        for host, stats in hub.http.stats.items():
            total = sum(
                series["value"]
                for series in obs.metrics.snapshot()["counters"][
                    "http_requests_total"
                ]
                if series["labels"]["host"] == host
            )
            assert total == stats.requests
            histogram = obs.metrics.snapshot()["histograms"][
                "http_request_latency_seconds"
            ]
            by_host = [s for s in histogram if s["labels"]["host"] == host]
            assert sum(s["count"] for s in by_host) == stats.requests

    def test_status_label_present(self, obs, hub, manuscript):
        with use(obs):
            Minaret(hub).recommend(manuscript)
        assert (
            obs.metrics.counter_value(
                "http_requests_total", host="dblp.org", status="200"
            )
            > 0
        )


class TestCacheInstrumentation:
    def test_hits_misses_and_evictions(self, obs):
        clock = SimulatedClock()
        cache = TTLCache(ttl=10.0, capacity=2, clock=clock, name="c")
        with use(obs):
            cache.get("a")  # miss
            cache.put("a", 1)
            cache.get("a")  # hit
            cache.put("b", 2)
            cache.put("c", 3)  # evicts "a" (capacity)
            clock.advance(11.0)
            cache.get("b")  # expired -> miss + eviction
        counter = obs.metrics.counter_value
        assert counter("cache_hits_total", cache="c") == 1.0
        assert counter("cache_misses_total", cache="c") == 2.0
        assert counter("cache_evictions_total", cache="c", reason="capacity") == 1.0
        assert counter("cache_evictions_total", cache="c", reason="expired") >= 1.0


class TestRateLimitInstrumentation:
    def test_granted_and_denied(self, obs):
        """A host's denials are its 429s; the bucket writes no series."""
        clock = SimulatedClock()
        http = SimulatedHttpClient(clock)
        http.register_host(
            "limited",
            lambda request: {},
            rate_limit=TokenBucket(2, 1.0, clock),
            latency=LatencyModel(base=0.0, jitter=0.0),
        )
        with use(obs):
            http.get("limited", "/p")
            http.get("limited", "/p")
            with pytest.raises(RateLimitedError):
                http.get("limited", "/p")
        counter = obs.metrics.counter_value
        assert counter("http_requests_total", host="limited", status="200") == 2.0
        assert counter("http_requests_total", host="limited", status="429") == 1.0
        assert list(obs.metrics.snapshot()["counters"]) == ["http_requests_total"]


class TestFaultInstrumentation:
    def test_injected_faults_counted(self, obs):
        policy = FaultPolicy(burst_every=2, seed=7, name="p")
        with use(obs):
            outcomes = [policy.decide(ordinal) for ordinal in range(1, 7)]
        injected = sum(outcomes)
        assert injected > 0
        assert (
            obs.metrics.counter_value("faults_injected_total", policy="p") == injected
        )

    def test_clean_policy_counts_nothing(self, obs):
        policy = FaultPolicy.never()
        with use(obs):
            assert not policy.decide(1)
        assert obs.metrics.counter_total("faults_injected_total") == 0.0


def _backend(workers):
    return "sequential" if workers == 1 else "thread"


class TestExecutorInstrumentation:
    """One ``executor.map`` span and one metrics write per map call."""

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("count", [0, 1, 6])
    def test_task_counters_and_spans(self, obs, workers, count):
        backend = _backend(workers)
        with use(obs):
            with obs.span("caller"):
                results = create_executor(workers).map(lambda x: x * 2, range(count))
        assert results == [x * 2 for x in range(count)]
        # Empty and single-item maps emit the same shape as any other.
        [fanout] = obs.tracer.finished("executor.map")
        [caller] = obs.tracer.finished("caller")
        assert fanout.parent_id == caller.span_id
        assert fanout.labels == {"backend": backend, "tasks": count, "failures": 0}
        assert fanout.error is None
        assert obs.tracer.finished("executor.task") == []
        assert (
            obs.metrics.counter_value(
                "executor_tasks_total", backend=backend, outcome="ok"
            )
            == count
        )
        for name in ("executor_queue_seconds", "executor_task_seconds"):
            stats = obs.metrics.histogram_stats(name, backend=backend)
            assert (stats["count"] if stats else 0) == count
        assert "executor_inflight" not in obs.metrics.snapshot()["gauges"]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_task_spans_and_http_parent_under_the_map(self, obs, workers):
        client = SimulatedHttpClient(SimulatedClock())
        client.register_host("h.example", lambda req: {})

        def task(i):
            client.get("h.example", f"/item/{i}")
            with obs.span("child", i=i) as span:
                return span

        with use(obs):
            with obs.span("caller"):
                children = create_executor(workers).map(task, range(8))
        [fanout] = obs.tracer.finished("executor.map")
        assert all(child.parent_id == fanout.span_id for child in children)
        # Attempts made in a task attribute to the map's span.
        [series] = obs.metrics.snapshot()["histograms"][
            "http_request_latency_seconds"
        ]
        assert series["count"] == 8
        assert {(e["trace_id"], e["span_id"]) for e in series["exemplars"]} == {
            (fanout.trace_id, fanout.span_id)
        }

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_lowest_index_error_raised_and_counted(self, obs, workers):
        backend = _backend(workers)

        def boom_on_odd(i):
            if i % 2 == 1:
                raise ValueError(str(i))
            return i

        with use(obs):
            with pytest.raises(ValueError, match="^1$"):
                create_executor(workers).map(boom_on_odd, range(6))
        counter = obs.metrics.counter_value
        assert counter("executor_tasks_total", backend=backend, outcome="ok") == 3.0
        assert counter("executor_tasks_total", backend=backend, outcome="error") == 3.0
        assert obs.metrics.histogram_stats(
            "executor_task_seconds", backend=backend
        )["count"] == 6
        [fanout] = obs.tracer.finished("executor.map")
        assert fanout.labels["failures"] == 3
        assert fanout.error == "ValueError: 1"

    def test_failed_task_counted_as_error(self, obs):
        def boom(x):
            raise ValueError(x)

        with use(obs):
            with pytest.raises(ValueError):
                create_executor(1).map(boom, [1])
        assert (
            obs.metrics.counter_value(
                "executor_tasks_total", backend="sequential", outcome="error"
            )
            == 1.0
        )
        assert obs.metrics.counter_value(
            "executor_tasks_total", backend="sequential", outcome="ok"
        ) == 0.0
        assert "executor_inflight" not in obs.metrics.snapshot()["gauges"]


class TestPipelineSpans:
    def test_phases_nest_under_recommend(self, obs, hub, manuscript):
        with use(obs):
            result = Minaret(hub).recommend(manuscript)
        [root] = obs.tracer.finished("pipeline.recommend")
        phases = [
            s
            for s in obs.tracer.finished()
            if s.name.startswith("phase.") and s.parent_id == root.span_id
        ]
        assert {s.name for s in phases} == {
            f"phase.{r.phase}" for r in result.phase_reports
        }
        by_name = {s.name: s for s in phases}
        for report in result.phase_reports:
            span = by_name[f"phase.{report.phase}"]
            assert span.labels["items_in"] == report.items_in
            assert span.labels["items_out"] == report.items_out
            assert span.labels["requests"] == report.requests
            assert span.virtual_seconds == pytest.approx(report.virtual_seconds)


class TestOntologyEvents:
    def test_ontology_build_event(self, obs):
        from repro.ontology.data import build_seed_ontology

        with use(obs):
            build_seed_ontology()
        [event] = obs.ring.events("ontology_built")
        assert event.fields["topics"] > 0
        assert event.fields["edges"] > 0


def _recommend_bodies(world, count, keyword_count=2):
    """``/recommend`` bodies for ``count`` unambiguous authors, by id."""
    names = Counter(author.name for author in world.authors.values())
    bodies = []
    for author_id in sorted(world.authors):
        author = world.authors[author_id]
        if names[author.name] > 1 or len(author.topic_expertise) < keyword_count:
            continue
        manuscript = make_manuscript(world, author, keyword_count=keyword_count)
        payload = {
            "title": manuscript.title,
            "keywords": list(manuscript.keywords),
            "authors": [
                {"name": a.name, "affiliation": a.affiliation, "country": a.country}
                for a in manuscript.authors
            ],
            "target_venue": manuscript.target_venue,
        }
        bodies.append({"manuscript": payload, "config": {}, "debug_cost": True})
        if len(bodies) == count:
            return bodies
    raise RuntimeError("world has too few unambiguous authors")


class TestSharedHubAttribution:
    """Two deployments on one hub: each registry counts only its own work."""

    def test_sequential_requests_split_by_deployment(self, world, hub):
        apis = [MinaretApi(hub, obs=Observability()) for __ in range(2)]
        for api, body in zip(apis, _recommend_bodies(world, 2)):
            before = {host: stats.requests for host, stats in hub.http.stats.items()}
            other = next(o for o in apis if o is not api).obs.metrics
            untouched = other.snapshot()
            response = api.handle("POST", "/api/v1/recommend", body)
            assert response.ok
            metrics, bill = api.obs.metrics, response.body["cost"]
            for host, stats in hub.http.stats.items():
                assert metrics.counter_matching(
                    "http_requests_total", {"host": host}
                ) == stats.requests - before[host]
            assert metrics.counter_total("http_requests_total") == bill["requests"] > 0
            # TTL 0 builds no crawler cache: no lookup, no miss, no row.
            assert metrics.counter_total("cache_misses_total") == 0.0
            assert "crawler" not in bill["caches"]
            assert metrics.counter_value(
                "executor_tasks_total", backend="sequential", outcome="ok"
            ) == sum(
                span.labels["tasks"]
                for span in api.obs.tracer.finished("executor.map")
            ) > 0
            assert other.snapshot() == untouched

    def test_concurrent_requests_split_by_deployment(self, world, hub):
        apis = [MinaretApi(hub, obs=Observability()) for __ in range(2)]
        bodies = _recommend_bodies(world, 2)
        responses = [None, None]
        before = hub.http.total_requests()

        def run(index):
            responses[index] = apis[index].handle("POST", "/api/v1/recommend", bodies[index])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        bills = [response.body["cost"] for response in responses]
        for api, bill in zip(apis, bills):
            metrics = api.obs.metrics
            assert metrics.counter_total("http_requests_total") == bill["requests"]
            assert metrics.counter_total("cache_misses_total") == 0.0
            assert "crawler" not in bill["caches"]
        assert sum(bill["requests"] for bill in bills) == (
            hub.http.total_requests() - before
        )


@pytest.fixture(scope="module")
def cold_world():
    """The 2,000-scholar world the per-op budgets are measured on."""
    return generate_world(WorldConfig(author_count=2_000, seed=1))


class TestLabelKeyBudget:
    """Per-request writes use keys built once per call site."""

    #: A cold op makes about 390 simulated attempts; telemetry that
    #: rebuilt keys per write built about 1,700 keys per op.
    MAX_KEYS_PER_OP = 40

    def test_cold_op_builds_few_label_keys(self, monkeypatch, cold_world):
        hub = ScholarlyHub.deploy(cold_world)
        api = MinaretApi(hub)
        bodies = _recommend_bodies(cold_world, 11, keyword_count=3)
        assert api.handle("POST", "/api/v1/recommend", bodies[0]).ok
        builds = []
        build = metrics_module._label_key

        def counting(labels):
            builds.append(labels)
            return build(labels)

        monkeypatch.setattr(metrics_module, "_label_key", counting)
        before = hub.http.total_requests()
        for body in bodies[1:]:
            assert api.handle("POST", "/api/v1/recommend", body).ok
        ops = len(bodies) - 1
        assert hub.http.total_requests() - before > 100 * ops
        assert len(builds) <= self.MAX_KEYS_PER_OP * ops


class _CountingLock:
    """A registry lock that counts its acquisitions: one per registry call."""

    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)

#: The ledger methods the ``charge_*`` helpers call on each active ledger.
_LEDGER_CHARGES = (
    "add_http",
    "add_wait",
    "add_cache",
    "add_features",
    "add_pruning",
    "add_phase",
)


class TestTelemetryCountBudget:
    """A cold op writes telemetry per unit of work, not per internal step.

    Counts, not timings, so the guard resolves on any host.  Telemetry
    that opened a span per executor task, wrote the registry twice per
    simulated attempt and charged a TTL-0 crawler cache on every fetch
    read 94.5 spans, 1,689 registry writes and 781 ledger charges per
    cold op on this world.
    """

    MAX_SPANS_PER_OP = 20
    MAX_REGISTRY_WRITES_PER_OP = 600
    MAX_CHARGES_PER_OP = 450

    def test_cold_op_telemetry_counts(self, monkeypatch, cold_world):
        hub = ScholarlyHub.deploy(cold_world)
        api = MinaretApi(hub)
        bodies = _recommend_bodies(cold_world, 11, keyword_count=3)
        assert api.handle("POST", "/api/v1/recommend", bodies[0]).ok
        # Nothing reads the registry during an op, so every acquisition
        # of its lock is one write call.
        lock = _CountingLock(api.obs.metrics._lock)
        monkeypatch.setattr(api.obs.metrics, "_lock", lock)
        charges = Counter()
        label = "POST /api/v1/recommend"
        for name in _LEDGER_CHARGES:
            method = getattr(RequestLedger, name)

            def charge(ledger, *args, _method=method):
                # Every charge reaches every active ledger; count it once,
                # on the request's own ledger.
                if ledger.label == label:
                    charges[_method.__name__] += 1
                return _method(ledger, *args)

            monkeypatch.setattr(RequestLedger, name, charge)
        spans_before = len(api.obs.tracer.finished())
        for body in bodies[1:]:
            assert api.handle("POST", "/api/v1/recommend", body).ok
        ops = len(bodies) - 1
        spans = len(api.obs.tracer.finished()) - spans_before
        assert spans_before + spans < api.obs.tracer._finished.maxlen
        per_op = {
            "spans": spans / ops,
            "writes": lock.acquired / ops,
            "charges": sum(charges.values()) / ops,
        }
        assert per_op["charges"] > 300, per_op  # one per attempt at least
        assert per_op["spans"] <= self.MAX_SPANS_PER_OP, per_op
        assert per_op["writes"] <= self.MAX_REGISTRY_WRITES_PER_OP, per_op
        assert per_op["charges"] <= self.MAX_CHARGES_PER_OP, per_op

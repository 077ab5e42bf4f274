"""End-to-end checks that the hot layers actually report telemetry."""

import threading
from collections import Counter

import pytest

import repro.obs.metrics as metrics_module
from repro.api.handlers import MinaretApi
from repro.core.pipeline import Minaret
from repro.obs import Observability, get_obs, use
from repro.scholarly.registry import ScholarlyHub
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
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
        clock = SimulatedClock()
        bucket = TokenBucket(2, 1.0, clock, name="b")
        with use(obs):
            assert bucket.try_acquire()
            assert bucket.try_acquire()
            assert not bucket.try_acquire()
        assert obs.metrics.counter_value("ratelimit_granted_total", bucket="b") == 2.0
        assert obs.metrics.counter_value("ratelimit_denied_total", bucket="b") == 1.0


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


class TestExecutorInstrumentation:
    @pytest.mark.parametrize("workers,backend", [(1, "sequential"), (4, "thread")])
    def test_task_counters_and_spans(self, obs, workers, backend):
        from repro.concurrency import create_executor

        executor = create_executor(workers)
        with use(obs):
            with obs.span("driver"):
                results = executor.map(lambda x: x * 2, range(6))
        assert results == [0, 2, 4, 6, 8, 10]
        assert (
            obs.metrics.counter_value(
                "executor_tasks_total", backend=backend, outcome="ok"
            )
            == 6.0
        )
        assert obs.metrics.gauge_value("executor_inflight", backend=backend) == 0.0
        tasks = obs.tracer.finished("executor.task")
        assert len(tasks) == 6
        [driver] = obs.tracer.finished("driver")
        assert all(t.parent_id == driver.span_id for t in tasks)

    def test_failed_task_counted_as_error(self, obs):
        from repro.concurrency import create_executor

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
        assert obs.metrics.gauge_value("executor_inflight", backend="sequential") == 0.0


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


class TestStorageAndOntologyEvents:
    def test_wal_appends_reported(self, obs, tmp_path):
        from repro.storage.persistence import JournaledStore

        with use(obs):
            with JournaledStore.open(tmp_path, name="profiles") as store:
                store.insert({"name": "Ada"})
                store.snapshot()
        assert (
            obs.metrics.counter_value(
                "wal_appends_total", store="profiles", op="insert"
            )
            == 1.0
        )
        assert obs.metrics.counter_value("snapshots_total", store="profiles") == 1.0
        names = {e.name for e in obs.ring.events()}
        assert {"wal_recovered", "wal_append", "snapshot_written"} <= names

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
            assert (
                metrics.counter_value("cache_misses_total", cache="crawler")
                == bill["caches"]["crawler"]["misses"]
                > 0
            )
            assert metrics.counter_value(
                "executor_tasks_total", backend="sequential", outcome="ok"
            ) == len(api.obs.tracer.finished("executor.task")) > 0
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
            assert (
                metrics.counter_value("cache_misses_total", cache="crawler")
                == bill["caches"]["crawler"]["misses"]
            )
        assert sum(bill["requests"] for bill in bills) == (
            hub.http.total_requests() - before
        )


class TestLabelKeyBudget:
    """Per-request writes use keys built once per call site."""

    #: A cold op makes about 390 simulated attempts; telemetry that
    #: rebuilt keys per write built about 1,700 keys per op.
    MAX_KEYS_PER_OP = 40

    def test_cold_op_builds_few_label_keys(self, monkeypatch):
        world = generate_world(WorldConfig(author_count=2_000, seed=1))
        hub = ScholarlyHub.deploy(world)
        api = MinaretApi(hub)
        bodies = _recommend_bodies(world, 11, keyword_count=3)
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

"""Property tests for the fault policy's pure, ordinal-keyed decisions."""

import random
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability, use
from repro.web.faults import FaultPolicy, unit_draw
from repro.web.http import LatencyModel


def reference_burst_schedule(burst_every: int, burst_length: int, n: int) -> list[bool]:
    """The original sequential process the closed form must reproduce.

    Every ``burst_every``-th arrival starts a streak of ``burst_length``
    consecutive failures; arrivals already inside a streak don't start
    new ones.
    """
    outcomes = []
    streak = 0
    for ordinal in range(1, n + 1):
        if streak > 0:
            outcomes.append(True)
            streak -= 1
        elif ordinal % burst_every == 0:
            outcomes.append(True)
            streak = burst_length - 1
        else:
            outcomes.append(False)
    return outcomes


class TestBurstClosedForm:
    @given(
        burst_every=st.integers(min_value=1, max_value=9),
        burst_length=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_simulation(self, burst_every, burst_length, n):
        policy = FaultPolicy(burst_every=burst_every, burst_length=burst_length)
        decided = [policy.decide(o) for o in range(1, n + 1)]
        assert decided == reference_burst_schedule(burst_every, burst_length, n)

    @given(
        burst_every=st.integers(min_value=2, max_value=9),
        burst_length=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_failure_rate_bounded_by_schedule(self, burst_every, burst_length):
        # Over a long window the burst schedule fails at most
        # length / max(length, burst_every) of requests (plus edge slack).
        policy = FaultPolicy(burst_every=burst_every, burst_length=burst_length)
        n = 500
        failures = sum(policy.decide(o) for o in range(1, n + 1))
        period = burst_every * -(-burst_length // burst_every)
        expected = burst_length / period
        assert failures / n <= expected + burst_length / n


class TestDecisionPurity:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        probability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ordinals=st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=60,
            unique=True,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_order_of_evaluation_is_irrelevant(self, seed, probability, ordinals):
        policy = FaultPolicy(
            failure_probability=probability, burst_every=5, burst_length=2, seed=seed
        )
        forward = {o: policy.decide(o) for o in ordinals}
        backward = {o: policy.decide(o) for o in reversed(ordinals)}
        again = {o: policy.decide(o) for o in sorted(ordinals)}
        assert forward == backward == again

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        probability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_thread_interleaving_is_irrelevant(self, seed, probability):
        policy = FaultPolicy(failure_probability=probability, seed=seed)
        ordinals = list(range(1, 201))
        expected = [policy.decide(o) for o in ordinals]
        results = {}
        lock = threading.Lock()

        def worker(chunk):
            local = [(o, policy.decide(o)) for o in chunk]
            with lock:
                results.update(local)

        threads = [
            threading.Thread(target=worker, args=(ordinals[i::8],)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [results[o] for o in ordinals] == expected

    def test_same_policy_twice_identical(self):
        draws_a = [FaultPolicy(failure_probability=0.5, seed=9).decide(o) for o in range(1, 101)]
        draws_b = [FaultPolicy(failure_probability=0.5, seed=9).decide(o) for o in range(1, 101)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_ordinal_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPolicy().decide(0)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ordinal=st.integers(min_value=1, max_value=2**32),
        base=st.floats(min_value=0.0, max_value=10.0),
        jitter=st.floats(min_value=0.0, max_value=10.0),
        probability=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_draws_equal_the_string_seeded_formula(
        self, seed, ordinal, base, jitter, probability
    ):
        # The memo must return exactly what a fresh generator would.
        model = LatencyModel(base=base, jitter=jitter, seed=seed)
        policy = FaultPolicy(failure_probability=probability, seed=seed)
        for _ in range(2):
            rng = random.Random(f"{seed}:{ordinal}")
            assert model.sample(ordinal) == base + rng.uniform(0.0, jitter)
            rng = random.Random(f"{seed}:{ordinal}")
            assert policy.decide(ordinal) == (rng.random() < probability)

    def test_repeated_draw_is_a_memo_hit(self):
        model = LatencyModel(base=0.1, jitter=0.2, seed=41)
        policy = FaultPolicy(failure_probability=0.5, seed=43)
        first_latency, first_fate = model.sample(777), policy.decide(777)
        hits = unit_draw.cache_info().hits
        assert model.sample(777) == first_latency
        assert policy.decide(777) == first_fate
        assert unit_draw.cache_info().hits == hits + 2

    def test_repeated_failing_ordinal_is_counted_each_time(self):
        policy = FaultPolicy(failure_probability=1.0, seed=3, name="p")
        obs = Observability()
        with use(obs):
            assert policy.decide(5) and policy.decide(5)
        assert obs.metrics.counter_value("faults_injected_total", policy="p") == 2

    def test_threads_drawing_the_same_ordinals_get_sequential_results(self):
        ordinals = range(1, 2001)
        expected = [random.Random(f"11:{o}").random() for o in ordinals]
        unit_draw.cache_clear()  # make the threads race on misses too
        results = [None] * 8
        start = threading.Barrier(8)

        def worker(index):
            start.wait()
            results[index] = [unit_draw(11, o) for o in ordinals]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 8
